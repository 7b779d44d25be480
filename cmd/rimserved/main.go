// Command rimserved is the RIM multi-session tracking daemon: it accepts
// CSI frame streams over TCP (the internal/session wire protocol), runs
// one supervised core.Streamer per session behind a bounded queue with an
// explicit overload policy, sheds load past its admission watermark,
// periodically checkpoints every session for crash-restart, and serves its
// health and metrics on a debug HTTP endpoint.
//
// Usage:
//
//	rimserved [-listen :7101] [-debug-addr :7171]
//	          [-shards 8] [-max-sessions 0] [-queue 64]
//	          [-policy drop-oldest|reject|degrade]
//	          [-hop-deadline 0] [-span 3] [-hop 0.5]
//	          [-checkpoint-dir dir] [-checkpoint-every 5s]
//	          [-postmortem-out dir] [-fusion off|particle|eskf]
//	          [-metric-cardinality 0] [-confidence-floor 0]
//	          [-slo-window 5m] [-slo-interval 5s] [-slo-lag-le 1.0]
//	          [-slo-lag-target 0.99] [-slo-degraded-target 0.95]
//	          [-quality] [-slo-quality-target 0]
//	          [-mistune-session-prefix p] [-mistune-noise 0.01]
//
// On SIGINT/SIGTERM the daemon drains every session, persists final
// checkpoints and exits; on the next start it restores them and resumes.
// A SIGKILL loses at most one checkpoint interval per session.
//
// Observability: /metrics carries per-session labeled series (bounded by
// -metric-cardinality; colder sessions fold into {session="other"}), /slo
// reports sliding-window error budgets — fleet objectives plus a
// lag/degraded pair per live session — and a fast-burn page captures a
// flight-recorder postmortem bundle. /quality reports per-session
// estimator-consistency verdicts (NIS chi-square bands, PF degeneracy)
// and the fleet confidence-calibration curve; alerts capture their own
// quality_breach bundle plus a rate-limited CPU profile. The rimtop
// command renders all of it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
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

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"rimserved:"}, args...)...)
	os.Exit(1)
}

// arrayForAnts maps a session's antenna count to a receive geometry. The
// wire protocol carries only the shape, so the daemon picks the canonical
// array of that size.
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

func main() {
	listen := flag.String("listen", ":7101", "TCP ingest address")
	debugAddr := flag.String("debug-addr", ":7171", "debug HTTP address (/metrics, /healthz, /sessions, /debug/...), empty disables")
	shards := flag.Int("shards", 8, "session registry shard count")
	maxSessions := flag.Int("max-sessions", 0, "admission watermark: shed session opens beyond this many live sessions (0 = unlimited)")
	queueCap := flag.Int("queue", 64, "per-session frame queue capacity")
	policyName := flag.String("policy", "degrade", "overload policy: drop-oldest, reject, degrade")
	hopDeadline := flag.Duration("hop-deadline", 0, "per-hop analysis deadline (0 = unbounded); overruns emit degraded placeholders")
	span := flag.Float64("span", 3, "streaming analysis span, seconds")
	hop := flag.Float64("hop", 0.5, "streaming analysis hop, seconds")
	window := flag.Float64("window", 0.3, "TRRS lag window, seconds")
	maxRestarts := flag.Int("max-restarts", 3, "consecutive supervisor restarts before quarantine")
	failThresh := flag.Int("failure-threshold", 0, "consecutive analysis failures before a session restart (0 = package default)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for session checkpoints (enables crash-restart)")
	ckptEvery := flag.Duration("checkpoint-every", 5*time.Second, "checkpoint persistence interval")
	pmOut := flag.String("postmortem-out", "", "directory flight-recorder postmortem bundles are written to")
	fusionName := flag.String("fusion", "off", "per-session fusion backend: off, particle, eskf (fused poses appear in /sessions)")
	metricCard := flag.Int("metric-cardinality", 0, "max labeled series per metric family; colder sessions fold into {session=\"other\"} (0 = default)")
	confFloor := flag.Float64("confidence-floor", 0, "count moving estimates below this confidence toward the confidence SLO (0 disables)")
	sloWindow := flag.Duration("slo-window", 5*time.Minute, "SLO error-budget window")
	sloEvery := flag.Duration("slo-interval", 5*time.Second, "SLO evaluation and per-session objective sync interval")
	sloLagLE := flag.Float64("slo-lag-le", 1.0, "lag SLO: an estimate is good when ingest-to-emit lag is at most this many seconds; keep it above the structural floor of about one -hop (0 disables lag objectives)")
	sloLagTarget := flag.Float64("slo-lag-target", 0.99, "lag SLO good-fraction target")
	sloDegTarget := flag.Float64("slo-degraded-target", 0.95, "degraded SLO: required fraction of estimates emitted non-degraded (0 disables)")
	sloConfTarget := flag.Float64("slo-conf-target", 0, "confidence SLO: required fraction of moving estimates at or above -confidence-floor (0 disables)")
	sloSessDegTarget := flag.Float64("slo-session-degraded-target", 0, "per-session degraded SLO target; a single bad walker needs a tighter target than the diluted fleet ratio (0 = use -slo-degraded-target)")
	qualityOn := flag.Bool("quality", true, "estimator-quality monitors: per-channel NIS bands, TRRS signal telemetry, confidence calibration, /quality endpoint")
	sloQualityTarget := flag.Float64("slo-quality-target", 0, "fleet quality SLO: required fraction of consistency samples inside their chi-square band (0 disables)")
	mistunePrefix := flag.String("mistune-session-prefix", "", "quality self-test: inject Gaussian noise into the fusion inputs of sessions whose id has this prefix (empty disables)")
	mistuneNoise := flag.Float64("mistune-noise", 0.01, "mistune injection noise std, metres/radians per step")
	flag.Parse()

	policy, ok := session.ParsePolicy(*policyName)
	if !ok {
		fatal("unknown -policy", *policyName)
	}

	var fusionCfg *fusion.Config
	if *fusionName != "off" {
		backend, ok := fusion.ParseBackend(*fusionName)
		if !ok {
			fatal("unknown -fusion backend", *fusionName)
		}
		fc := fusion.DefaultConfig(1)
		fc.Backend = backend
		fusionCfg = &fc
	}

	log := obs.NewTextLogger(os.Stderr, slog.LevelInfo)
	obs.SetLogger(log)
	reg := obs.NewRegistry()
	rec := trace.NewRecorder(0)
	if fusionCfg != nil {
		// Per-session backends share the process registry/recorder so
		// rim_fusion_* counters and KindFusionStep events cover the fleet.
		fusionCfg.Obs = reg
		fusionCfg.Trace = rec
	}
	breaker := session.NewBreaker(session.BreakerConfig{})

	var registry *session.Registry
	registryHealth := func() any {
		if registry == nil {
			return nil
		}
		return registry.Health()
	}
	flight := trace.NewFlight(trace.FlightConfig{
		Recorder: rec,
		Registry: reg,
		Dir:      *pmOut,
		Health:   registryHealth,
		Log:      log,
	})
	// Quarantines are rare and load-bearing for diagnosis, so they get
	// their own flight: the shared one rate-limits captures and a stream
	// of routine degraded-estimate bundles would starve the one that
	// explains why a session died.
	quarantineFlight := trace.NewFlight(trace.FlightConfig{
		Recorder: rec,
		Registry: reg,
		Dir:      *pmOut,
		Trigger:  func(reason string) bool { return reason == trace.ReasonSessionQuarantined },
		Health:   registryHealth,
		Log:      log,
	})

	// On-breach CPU profiling: an SLO page or a quality alert drops a
	// rate-limited pprof profile next to the postmortem bundle (nil when
	// no bundle directory is configured).
	profiler := obs.NewCPUProfiler(obs.CPUProfilerConfig{Dir: *pmOut, Log: log})

	// Estimator-quality engine: one consistency monitor per session plus
	// the fleet-wide TRRS signal telemetry and confidence calibration.
	// Alert transitions get their own flight so a statistical breach
	// cannot be starved out of the shared capture budget.
	var qualityEng *quality.Engine
	if *qualityOn {
		qualityFlight := trace.NewFlight(trace.FlightConfig{
			Recorder: rec,
			Registry: reg,
			Dir:      *pmOut,
			Trigger:  func(reason string) bool { return reason == trace.ReasonQualityBreach },
			Health:   registryHealth,
			Log:      log,
		})
		qualityEng = quality.New(quality.Config{
			Obs:    reg,
			Trace:  rec,
			Flight: qualityFlight,
			OnTransition: func(entity string, from, to quality.State, channel string, frac float64) {
				log.Warn("estimator quality transition", "session", entity,
					"from", from.String(), "to", to.String(),
					"channel", channel, "outside_frac", frac)
				if to == quality.StateAlert {
					profiler.Offer(trace.ReasonQualityBreach)
				}
			},
		})
	}

	factory, err := session.NewCoreFactory(session.CoreFactoryConfig{
		Template: core.StreamConfig{
			Core: core.Config{
				WindowSeconds: *window,
				Obs:           reg,
				Trace:         rec,
				Flight:        flight,
				Quality:       qualityEng,
				Logger:        log,
			},
			SpanSeconds: *span,
			HopSeconds:  *hop,
			HopDeadline: *hopDeadline,
		},
		ArrayFor: arrayForAnts,
	})
	if err != nil {
		fatal(err)
	}

	metrics := session.NewMetricsCap(reg, *metricCard)
	registry, err = session.NewRegistry(session.RegistryConfig{
		Shards:          *shards,
		MaxSessions:     *maxSessions,
		Breaker:         breaker,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Log:             log,
		Session: session.Config{
			Factory:          factory,
			Queue:            *queueCap,
			Policy:           policy,
			MaxRestarts:      *maxRestarts,
			FailureThreshold: *failThresh,
			Metrics:          metrics,
			Flight:           quarantineFlight,
			Log:              log,
			Fusion:           fusionCfg,
			ConfidenceFloor:  *confFloor,
			Quality:          qualityEng,
			MistunePrefix:    *mistunePrefix,
			MistuneNoiseStd:  *mistuneNoise,
		},
	})
	if err != nil {
		fatal(err)
	}
	if n, _ := registry.Restore(); n > 0 {
		log.Info("sessions restored from checkpoints", "count", n, "dir", *ckptDir)
	}

	// SLO engine: fleet objectives over the process-wide signals, plus a
	// per-session lag/degraded pair synced against the live fleet. A page
	// (fast burn on both windows) captures its own postmortem bundle so
	// the breach arrives with the trace that explains it.
	sloFlight := trace.NewFlight(trace.FlightConfig{
		Recorder: rec,
		Registry: reg,
		Dir:      *pmOut,
		Trigger:  func(reason string) bool { return reason == trace.ReasonSLOBreach },
		Health:   registryHealth,
		Log:      log,
	})
	sloEng := slo.New(slo.Config{
		Obs: reg,
		OnPage: func(o slo.Objective, s slo.Status) {
			log.Warn("SLO paging", "slo", o.Name, "entity", o.Entity,
				"burn_short", s.BurnShort, "burn_long", s.BurnLong,
				"budget_remaining", s.BudgetRemaining)
			sloFlight.Offer(trace.ReasonSLOBreach, -1, s)
			profiler.Offer(trace.ReasonSLOBreach)
		},
	})
	registerFleetSLOs(sloEng, reg, metrics, sloParams{
		window:     *sloWindow,
		lagLE:      *sloLagLE,
		lagTarget:  *sloLagTarget,
		degTarget:  *sloDegTarget,
		confTarget: *sloConfTarget,
	})
	if *sloQualityTarget > 0 && qualityEng != nil {
		// Fleet quality objective: the fraction of consistency samples
		// inside their chi-square band, across every session and channel.
		eng := qualityEng
		sloEng.Register(slo.Objective{
			Name:   "fleet/quality",
			Entity: "fleet",
			Target: *sloQualityTarget,
			Window: *sloWindow,
			Source: func() slo.Sample {
				samples, outside := eng.Totals()
				return slo.Sample{Good: float64(samples - outside), Total: float64(samples)}
			},
		})
	}

	// Go runtime telemetry: GC pauses, heap, goroutines and scheduling
	// latency as rim_runtime_* series for rimtop's header and /metrics.
	stopRuntime := obs.NewRuntimeSampler(reg).Start(10 * time.Second)
	defer stopRuntime()
	sessDegTarget := *sloSessDegTarget
	if sessDegTarget == 0 {
		sessDegTarget = *sloDegTarget
	}
	sloStop := make(chan struct{})
	go sloLoop(sloEng, registry, metrics, sloParams{
		window:    *sloWindow,
		lagLE:     *sloLagLE,
		lagTarget: *sloLagTarget,
		degTarget: sessDegTarget,
	}, *sloEvery, sloStop)

	if *debugAddr != "" {
		srv, addr, err := obs.StartDebugServer(*debugAddr, reg,
			func() any { return registry.Health() },
			obs.Route{Pattern: "/debug/rimtrace", Handler: trace.Handler(rec)},
			obs.Route{Pattern: "/debug/postmortem", Handler: flight.Handler()},
			obs.Route{Pattern: "/sessions", Handler: registry.InfosHandler()},
			obs.Route{Pattern: "/slo", Handler: sloEng.Handler()},
			obs.Route{Pattern: "/quality", Handler: qualityEng.Handler()},
		)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		log.Info("debug server up", "addr", "http://"+addr)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	log.Info("rimserved listening", "addr", ln.Addr().String(),
		"policy", policy.String(), "max_sessions", *maxSessions, "shards", *shards)

	var connWg sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed during shutdown
			}
			connWg.Add(1)
			go func() {
				defer connWg.Done()
				defer conn.Close()
				serveConn(conn, registry, log)
			}()
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	sig := <-stop
	log.Info("shutting down", "signal", sig.String())
	close(sloStop)
	ln.Close()
	registry.Shutdown()
	log.Info("shutdown complete")
}

// sloParams bundles the objective knobs shared by the fleet and
// per-session registrations.
type sloParams struct {
	window     time.Duration
	lagLE      float64
	lagTarget  float64
	degTarget  float64
	confTarget float64
}

// registerFleetSLOs installs the process-wide objectives: ingest-to-emit
// lag p-quantile, degraded-estimate share, and (when a confidence floor is
// configured) the low-confidence share.
func registerFleetSLOs(eng *slo.Engine, reg *obs.Registry, m *session.Metrics, p sloParams) {
	if p.lagLE > 0 {
		// Registering before any streamer exists is fine: Timer returns
		// the same histogram the stream layer later resolves by name.
		lagH := reg.Timer("rim_stream_lag_seconds", "ingest-to-emit latency of the newest slot finalized per hop")
		eng.Register(slo.Objective{
			Name:   "fleet/lag",
			Entity: "fleet",
			Target: p.lagTarget,
			Window: p.window,
			Source: slo.LatencySource(lagH, p.lagLE),
		})
	}
	if p.degTarget > 0 {
		eng.Register(slo.Objective{
			Name:   "fleet/degraded",
			Entity: "fleet",
			Target: p.degTarget,
			Window: p.window,
			Source: familyRatioSource(m.EstDegraded, m.Estimates),
		})
	}
	if p.confTarget > 0 {
		eng.Register(slo.Objective{
			Name:   "fleet/confidence",
			Entity: "fleet",
			Target: p.confTarget,
			Window: p.window,
			Source: familyRatioSource(m.LowConf, m.Estimates),
		})
	}
}

// familyRatioSource reads cumulative (good, total) off two counter
// families' fleet totals (evictions fold into "other", so totals are
// conserved across any cardinality churn).
func familyRatioSource(bad, total *obs.CounterFamily) slo.Source {
	return func() slo.Sample {
		t := float64(total.Total())
		return slo.Sample{Good: t - float64(bad.Total()), Total: t}
	}
}

// sessionRatioSource is familyRatioSource scoped to one session's
// children. Get (never With) so a closed session cannot resurrect its
// labeled series; a missing child reads as "no traffic", which holds the
// objective at ok until the sync loop unregisters it.
func sessionRatioSource(bad, total *obs.CounterFamily, id string) slo.Source {
	return func() slo.Sample {
		tc, ok := total.Get(id)
		if !ok {
			return slo.Sample{}
		}
		t := float64(tc.Value())
		var b float64
		if bc, ok := bad.Get(id); ok {
			b = float64(bc.Value())
		}
		return slo.Sample{Good: t - b, Total: t}
	}
}

// sessionLagSource reads one session's lag histogram child.
func sessionLagSource(lag *obs.HistogramFamily, id string, le float64) slo.Source {
	return func() slo.Sample {
		h, ok := lag.Get(id)
		if !ok {
			return slo.Sample{}
		}
		return slo.Sample{Good: float64(h.CountAtOrBelow(le)), Total: float64(h.Count())}
	}
}

// sloLoop keeps per-session objectives in step with the live fleet and
// ticks the engine. Objectives are named session/<id>/{lag,degraded} with
// Entity = the session id, which is how rimtop joins budgets to rows.
func sloLoop(eng *slo.Engine, registry *session.Registry, m *session.Metrics, p sloParams, every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	tracked := map[string]bool{}
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		live := map[string]bool{}
		for _, info := range registry.Infos() {
			live[info.ID] = true
		}
		for id := range live {
			if tracked[id] {
				continue
			}
			tracked[id] = true
			if p.lagLE > 0 {
				eng.Register(slo.Objective{
					Name:   "session/" + id + "/lag",
					Entity: id,
					Target: p.lagTarget,
					Window: p.window,
					Source: sessionLagSource(m.Lag, id, p.lagLE),
				})
			}
			if p.degTarget > 0 {
				eng.Register(slo.Objective{
					Name:   "session/" + id + "/degraded",
					Entity: id,
					Target: p.degTarget,
					Window: p.window,
					Source: sessionRatioSource(m.EstDegraded, m.Estimates, id),
				})
			}
		}
		for id := range tracked {
			if live[id] {
				continue
			}
			delete(tracked, id)
			eng.Unregister("session/" + id + "/lag")
			eng.Unregister("session/" + id + "/degraded")
		}
		eng.Tick(time.Now())
	}
}

// serveConn pumps one producer connection: preamble check, then a message
// loop routing opens/frames/closes into the registry. A malformed message
// ends the connection (the framing cannot resync); session errors (shed,
// rejected frame) are logged and the connection continues — the producer's
// other sessions must not suffer.
func serveConn(conn net.Conn, registry *session.Registry, log *slog.Logger) {
	peer := conn.RemoteAddr().String()
	if err := session.ReadWirePreamble(conn); err != nil {
		log.Warn("wire preamble rejected", "peer", peer, "err", err)
		return
	}
	wr := session.NewWireReader(conn)
	shedLogged := map[string]bool{}
	for {
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
			if err := registry.Ingest(msg.ID, msg.Snap, msg.Missing); err != nil {
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
