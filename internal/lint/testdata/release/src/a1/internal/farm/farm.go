// Stub of the real a1/internal/farm transaction surface for the
// a1/release fixtures: update transactions reserve slots and pinned read
// transactions hold a snapshot pin, so both must end in Commit or Abort;
// unpinned read transactions hold nothing.
package farm

type Tx struct{}

func CreateTransaction() (*Tx, error)           { return &Tx{}, nil }
func CreateReadTransaction() (*Tx, error)       { return &Tx{}, nil }
func CreatePinnedReadTransaction() (*Tx, error) { return &Tx{}, nil }

func (*Tx) Commit() error                { return nil }
func (*Tx) Abort()                       {}
func (*Tx) Get(k string) ([]byte, error) { return nil, nil }
