package session

import (
	"fmt"

	"rim/internal/array"
	"rim/internal/core"
)

// CoreFactoryConfig parameterizes NewCoreFactory, the canonical
// StreamFactory for production daemons running core.Streamer sessions.
type CoreFactoryConfig struct {
	// Template is the stream configuration every session starts from —
	// analysis knobs (window, span, hop, deadline), the engine's
	// Parallelism and observability wiring are all shared fleet-wide. Template.Core.Array is ignored; each session's
	// geometry comes from ArrayFor.
	Template core.StreamConfig
	// ArrayFor maps a session's antenna count to its receive geometry
	// (required): the wire protocol carries only the CSI shape, so the
	// host decides which array a given element count means.
	ArrayFor func(numAnts int) (*array.Array, error)
}

// NewCoreFactory builds a StreamFactory from a shared configuration
// template: each session gets the template with its own array resolved
// from the spec's antenna count, and sessions carrying a checkpoint are
// restored instead of started cold. Daemons that used to hand-roll this
// closure (resolve array, copy config, branch on checkpoint) call this
// instead, so every core.Config field reaches every session unchanged.
func NewCoreFactory(cfg CoreFactoryConfig) (StreamFactory, error) {
	if cfg.ArrayFor == nil {
		return nil, fmt.Errorf("session: CoreFactoryConfig.ArrayFor is required")
	}
	return func(id string, spec Spec, cp *core.StreamCheckpoint) (Stream, error) {
		arr, err := cfg.ArrayFor(spec.NumAnts)
		if err != nil {
			return nil, err
		}
		scfg := cfg.Template
		scfg.Core.Array = arr
		if cp != nil {
			return core.NewStreamerFromCheckpoint(scfg, cp)
		}
		return core.NewStreamer(scfg, spec.Rate, spec.NumAnts, spec.NumTx, spec.NumSub)
	}, nil
}
