package query

import (
	"testing"

	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/sim"
)

// Helpers for running query tests inside the discrete-event simulator.

type simProc struct{ p *sim.Proc }

type simCluster struct {
	env  *sim.Env
	fab  *fabric.Fabric
	farm *farm.Farm
}

func simNew(t *testing.T, machines int) *simCluster {
	t.Helper()
	return simWith(fabric.DefaultConfig(machines, fabric.Sim))
}

// simWith builds a Sim cluster on cfg, at the same sim seed as simNew.
func simWith(cfg fabric.Config) *simCluster {
	env := sim.NewEnv(13)
	fab := fabric.New(cfg, env)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20, Replicas: 3})
	return &simCluster{env: env, fab: fab, farm: f}
}

// run adapts Env.Run so test code can take simProc instead of *sim.Proc.
func (sc *simCluster) run(fn func(p simProc)) {
	sc.env.Run(func(p *sim.Proc) { fn(simProc{p: p}) })
}
