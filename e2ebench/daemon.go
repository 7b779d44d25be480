package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"rim/internal/array"
	"rim/internal/core"
	"rim/internal/experiments"
	"rim/internal/fusion"
	"rim/internal/obs"
	"rim/internal/obs/quality"
	"rim/internal/obs/slo"
	"rim/internal/obs/trace"
	"rim/internal/session"
)

// rimserved's default flags, which the in-process daemon mirrors:
// -queue 64 -span 3 -hop 0.5 -window 0.3 -quality -slo-lag-le 1.0
// -slo-interval 5s -slo-window 5m -slo-lag-target 0.99
// -slo-degraded-target 0.95, plus -fusion eskf. -policy is degrade on
// paced-fleet (the default) and reject on saturate-walk.
const (
	queueCap      = 64
	spanSeconds   = 3.0
	hopSeconds    = 0.5
	windowSeconds = 0.3
	sloLagLE      = 1.0 // also slo_good_frac's on-time threshold
	sloInterval   = 5 * time.Second
	sloWindow     = 5 * time.Minute
)

// guardSlots is the streamer's guard region: a hop finalizes every slot
// up to guardSlots before the frame that triggered it.
const guardSlots = 30 // ceil(windowSeconds * rate)

// arrayForAnts is rimserved's antenna-count → geometry mapping.
func arrayForAnts(n int) (*array.Array, error) {
	switch n {
	case 2:
		return array.NewPairArray(experiments.Spacing), nil
	case 3:
		return array.NewLinear3(experiments.Spacing), nil
	case 6:
		return array.NewHexagonal(experiments.Spacing), nil
	}
	return nil, fmt.Errorf("no canonical array with %d antennas (want 2, 3 or 6)", n)
}

// streamTemplate is the stream configuration rimserved hands every
// session (observability wiring left out), and so the configuration of
// the offline reference the benchmark checks sessions against.
func streamTemplate() core.StreamConfig {
	return core.StreamConfig{
		Core:        core.Config{WindowSeconds: windowSeconds},
		SpanSeconds: spanSeconds,
		HopSeconds:  hopSeconds,
	}
}

// daemon is an in-process rimserved: the same registry, factory,
// observability, quality and SLO wiring its main builds from default
// flags. Its ingest loop (serveConn) mirrors rimserved's.
type daemon struct {
	reg      *obs.Registry
	rec      *trace.Recorder
	log      *slog.Logger
	registry *session.Registry
	metrics  *session.Metrics
	stopSLO  chan struct{}
	sloDone  chan struct{}
	stopRT   func()
}

// newDaemon builds the daemon. emit receives every finalized estimate
// batch (session.Config.Emit); wrap, when non-nil, wraps the stream
// factory (the traced run's timing wrapper).
func newDaemon(policy session.Policy, emit func(string, []core.Estimate), wrap func(session.StreamFactory) session.StreamFactory) (*daemon, error) {
	// rimserved logs to stderr; the benchmark keeps the formatting cost
	// and discards the text.
	log := obs.NewTextLogger(io.Discard, slog.LevelInfo)
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(0)
	fc := fusion.DefaultConfig(1)
	fc.Backend = fusion.BackendESKF
	fc.Obs = reg
	fc.Trace = rec

	d := &daemon{reg: reg, rec: rec, log: log}
	health := func() any {
		if d.registry == nil {
			return nil
		}
		return d.registry.Health()
	}
	flight := trace.NewFlight(trace.FlightConfig{Recorder: rec, Registry: reg, Health: health, Log: log})
	quarantineFlight := trace.NewFlight(trace.FlightConfig{
		Recorder: rec, Registry: reg, Health: health, Log: log,
		Trigger: func(reason string) bool { return reason == trace.ReasonSessionQuarantined },
	})
	qualityFlight := trace.NewFlight(trace.FlightConfig{
		Recorder: rec, Registry: reg, Health: health, Log: log,
		Trigger: func(reason string) bool { return reason == trace.ReasonQualityBreach },
	})
	qualityEng := quality.New(quality.Config{
		Obs: reg, Trace: rec, Flight: qualityFlight,
		OnTransition: func(entity string, from, to quality.State, channel string, frac float64) {
			log.Warn("estimator quality transition", "session", entity,
				"from", from.String(), "to", to.String(), "channel", channel, "outside_frac", frac)
		},
	})
	tmpl := streamTemplate()
	tmpl.Core.Obs = reg
	tmpl.Core.Trace = rec
	tmpl.Core.Flight = flight
	tmpl.Core.Quality = qualityEng
	tmpl.Core.Logger = log
	factory, err := session.NewCoreFactory(session.CoreFactoryConfig{Template: tmpl, ArrayFor: arrayForAnts})
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		factory = wrap(factory)
	}
	metrics := session.NewMetricsCap(reg, 0)
	d.metrics = metrics
	d.registry, err = session.NewRegistry(session.RegistryConfig{
		Breaker: session.NewBreaker(session.BreakerConfig{}),
		Log:     log,
		Session: session.Config{
			Factory:     factory,
			Queue:       queueCap,
			Policy:      policy,
			MaxRestarts: 3,
			Metrics:     metrics,
			Flight:      quarantineFlight,
			Log:         log,
			Fusion:      &fc,
			Quality:     qualityEng,
			Emit:        emit,
		},
	})
	if err != nil {
		return nil, err
	}

	sloFlight := trace.NewFlight(trace.FlightConfig{
		Recorder: rec, Registry: reg, Health: health, Log: log,
		Trigger: func(reason string) bool { return reason == trace.ReasonSLOBreach },
	})
	eng := slo.New(slo.Config{Obs: reg, OnPage: func(o slo.Objective, s slo.Status) {
		sloFlight.Offer(trace.ReasonSLOBreach, -1, s)
	}})
	eng.Register(slo.Objective{
		Name: "fleet/lag", Entity: "fleet", Target: 0.99, Window: sloWindow,
		Source: slo.LatencySource(reg.Timer("rim_stream_lag_seconds",
			"ingest-to-emit latency of the newest slot finalized per hop"), sloLagLE),
	})
	eng.Register(slo.Objective{
		Name: "fleet/degraded", Entity: "fleet", Target: 0.95, Window: sloWindow,
		Source: func() slo.Sample {
			t := float64(metrics.Estimates.Total())
			return slo.Sample{Good: t - float64(metrics.EstDegraded.Total()), Total: t}
		},
	})
	d.stopRT = obs.NewRuntimeSampler(reg).Start(10 * time.Second)
	d.stopSLO = make(chan struct{})
	d.sloDone = make(chan struct{})
	go func() {
		defer close(d.sloDone)
		tick := time.NewTicker(sloInterval)
		defer tick.Stop()
		for {
			select {
			case <-d.stopSLO:
				return
			case <-tick.C:
				eng.Tick(time.Now())
			}
		}
	}()
	return d, nil
}

// dropped is how many of a session's frames the degrade policy evicted
// from its full queue: frames that were ingested but will never be
// pushed into its stream.
func (d *daemon) dropped(id string) uint64 {
	if c, ok := d.metrics.Dropped.Get(id); ok {
		return c.Value()
	}
	return 0
}

// shutdown drains and flushes every session and stops the background
// loops; it returns once all of them have exited.
func (d *daemon) shutdown() {
	d.registry.Shutdown()
	close(d.stopSLO)
	<-d.sloDone
	d.stopRT()
}

// serveConn mirrors rimserved's per-connection ingest loop. With a
// tracer it records a wire.read and a session.ingest span per frame.
func serveConn(conn net.Conn, registry *session.Registry, log *slog.Logger, tr *connTracer) {
	peer := conn.RemoteAddr().String()
	if err := session.ReadWirePreamble(conn); err != nil {
		log.Warn("wire preamble rejected", "peer", peer, "err", err)
		return
	}
	wr := session.NewWireReader(conn)
	shedLogged := map[string]bool{}
	for {
		t0 := tr.now()
		msg, err := wr.Read()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				log.Info("connection closed", "peer", peer, "err", err)
			}
			return
		}
		switch msg.Type {
		case session.MsgOpen:
			if _, err := registry.Open(msg.ID, msg.Spec); err != nil {
				if !shedLogged[msg.ID] {
					log.Warn("session open refused", "peer", peer, "session", msg.ID, "err", err)
					shedLogged[msg.ID] = true
				}
			}
		case session.MsgFrame:
			t1 := tr.now()
			err := registry.Ingest(msg.ID, msg.Snap, msg.Missing)
			tr.frame(msg.ID, t0, t1, tr.now())
			if err != nil {
				if errors.Is(err, session.ErrUnknownSession) && !shedLogged[msg.ID] {
					log.Warn("frame for unknown session", "peer", peer, "session", msg.ID)
					shedLogged[msg.ID] = true
				}
			}
		case session.MsgClose:
			if err := registry.Close(msg.ID); err != nil && !errors.Is(err, session.ErrUnknownSession) {
				log.Warn("session close failed", "session", msg.ID, "err", err)
			}
		}
	}
}

// listener accepts the generator's connections and runs serveConn on
// each, like rimserved's accept loop.
type listener struct {
	ln net.Listener
	wg sync.WaitGroup
}

func listen(d *daemon, tracerFor func() *connTracer) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{ln: ln}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			tr := tracerFor()
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				defer conn.Close()
				serveConn(conn, d.registry, d.log, tr)
			}()
		}
	}()
	return l, nil
}

// close stops accepting and waits for every connection loop to end (the
// generator closes its side first).
func (l *listener) close() {
	l.ln.Close()
	l.wg.Wait()
}
