// Stub of the real a1/internal/fabric remote surface.
package fabric

type MachineID int

type Ctx struct{}

func (*Ctx) RPC(to MachineID, reqBytes int, f func(*Ctx) error) error { return nil }
func (*Ctx) ReadRemote(to MachineID, n int) ([]byte, error)           { return nil, nil }
func (*Ctx) Parallel(n int, f func(int, *Ctx))                        {}
func (*Ctx) Work(d int)                                               {}
