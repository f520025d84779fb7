// Stub of the real a1/internal/farm surface.
package farm

type Addr uint64

type Ptr struct {
	Addr Addr
	Size uint32
}

type ObjBuf struct{}

type Tx struct{}

func (*Tx) Read(p Ptr) (*ObjBuf, error) { return nil, nil }
func (*Tx) Commit() error               { return nil }

func (*Tx) ReadSizedInto(a Addr, size uint32, scratch []byte) ([]byte, error) { return nil, nil }
