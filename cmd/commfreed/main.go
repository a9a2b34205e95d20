// Command commfreed serves the commfree compiler as a long-running
// HTTP service ("compilation as a service"): clients POST loop nests to
// /v1/compile and receive a priced, communication-free allocation plan;
// /v1/execute additionally runs the plan on the simulated multicomputer
// and validates it against sequential execution. /v1/metrics exports
// per-stage latency histograms, cache hit rate, and queue gauges (JSON,
// or Prometheus text with ?format=prometheus); /v1/trace/{id} returns
// the span tree of a recent request; /healthz answers liveness probes.
//
// Usage:
//
//	commfreed [-addr :8377] [-workers 8] [-queue 128] [-cache 256]
//	          [-timeout 30s] [-max-iterations 4194304]
//	          [-trace-ring 256] [-chaos-seed 0] [-debug]
//	          [-store-dir DIR [-store-warm]]
//	          [-node NAME -peers NAME=URL,... [-replicas 2]
//	           [-hedge-after 0] [-heartbeat 1s] [-suspect 3]]
//	          [-node NAME -advertise URL -join URL [-leave-on-drain]]
//
// -store-dir persists every compiled plan as a content-addressed,
// CRC-checked record under DIR; a restart against the same directory
// serves its whole pre-restart corpus without recompiling (records
// rehydrate on demand, or all at boot with -store-warm). Corrupted or
// torn records are detected by checksum and silently recompiled.
//
// Cluster mode: -node and -peers make this process one member of a
// static fleet. Requests are routed by consistent hashing over the
// canonical source, so each plan has one home node (plus -replicas−1
// replicas); non-home nodes transparently forward /v1/compile and
// /v1/execute in one round trip, hedging to a replica when the home
// exceeds -hedge-after (0 disables hedging). The forward carries trace
// context (X-Commfree-Trace out, the home's trace ID back in
// X-Commfree-Trace-Id) but no spans: the reply's trace_id names this
// node's route trace, and GET /v1/trace/{id} here fetches the home's
// half of the span tree the first time that trace is read — or, if the
// home is gone, answers with the local half marked remote=unavailable.
// A heartbeat
// failure detector (-heartbeat interval, -suspect consecutive misses)
// drops crashed peers from routing; GET /v1/cluster reports peer
// health and the membership epoch.
//
// Dynamic membership: -join URL (with -node and -advertise) starts this
// node alone and announces it to the running fleet member at URL; the
// fleet bumps its membership epoch, teaches the newcomer the full
// member list, and migrates every plan whose ring home moved onto this
// node — rebalancing moves records, not recompilations. -leave-on-drain
// announces the symmetric leave on SIGTERM: this node's plans migrate
// to the survivors before the drain, so a scale-down loses no warm
// state. POST /v1/cluster/membership performs the same join/leave
// administratively.
//
// -chaos-seed enables service-wide deterministic fault injection: every
// execution runs under a seeded failure schedule (block crashes with
// checkpointed retry, message loss, slow nodes) and must still validate
// bit-identically; requests may override the seed per call with
// "chaos_seed". 0 disables injection (the default).
//
// -debug additionally mounts net/http/pprof under /debug/pprof/ for
// live profiling (off by default: the profile endpoints expose stack
// traces and should not face untrusted networks).
//
// SIGINT/SIGTERM drain gracefully: the node first stops admitting new
// work — local and forwarded requests get 503 + Retry-After so cluster
// peers re-route immediately — then the listener stops accepting and
// every in-flight and queued request completes and receives its
// response before the process exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"commfree/internal/cluster"
	"commfree/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "commfreed:", err)
		os.Exit(1)
	}
}

// parsePeers decodes -peers: comma-separated NAME=URL pairs.
func parsePeers(s string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want NAME=URL)", part)
		}
		peers = append(peers, cluster.Peer{Name: name, URL: url})
	}
	if len(peers) == 0 {
		return nil, errors.New("-peers is empty")
	}
	return peers, nil
}

func run() error {
	var (
		addr      = flag.String("addr", ":8377", "listen address")
		workers   = flag.Int("workers", 8, "worker pool size")
		queue     = flag.Int("queue", 128, "request queue depth")
		cacheN    = flag.Int("cache", 256, "plan cache entries")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		maxIter   = flag.Int64("max-iterations", 1<<22, "per-request iteration budget: larger nests are refused uncompiled, executions may spend no more (negative = unlimited)")
		batchWin  = flag.Duration("batch-window", 0, "coalesce identical /v1/execute requests arriving within this window into one execution (0 disables)")
		batchMax  = flag.Int("batch-max", 16, "cap on requests per coalesced execution batch (leader included)")
		drainFor  = flag.Duration("drain", 60*time.Second, "graceful-shutdown drain limit")
		traceRing = flag.Int("trace-ring", 256, "recent request traces kept for GET /v1/trace/{id}")
		admission = flag.String("admission", "slo", "overload policy: slo (shed with 429s when measured queue delay breaches -slo-target) or queue (reject only on a physically full queue)")
		sloTarget = flag.Duration("slo-target", 150*time.Millisecond, "end-to-end latency objective defended by -admission slo")
		chaosSeed = flag.Int64("chaos-seed", 0, "inject deterministic faults into every execution from this seed (0 disables); requests may override with \"chaos_seed\"")
		debug     = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")

		storeDir  = flag.String("store-dir", "", "persist compiled plans as content-addressed records under this directory (restart-warm)")
		storeWarm = flag.Bool("store-warm", false, "with -store-dir: rehydrate every stored plan into the cache at boot")

		nodeName     = flag.String("node", "", "cluster: this node's name (enables cluster mode; must appear in -peers, or be new with -join)")
		peersFlag    = flag.String("peers", "", "cluster: static peer set as NAME=URL,NAME=URL,...")
		replicas     = flag.Int("replicas", 2, "cluster: replicas per plan (home + R-1)")
		hedgeAfter   = flag.Duration("hedge-after", 0, "cluster: hedge a forwarded request to the next replica after this long (0 disables)")
		heartbeat    = flag.Duration("heartbeat", time.Second, "cluster: failure-detector heartbeat interval")
		suspect      = flag.Int("suspect", 3, "cluster: consecutive missed heartbeats before a peer is marked down")
		joinVia      = flag.String("join", "", "cluster: join the running fleet member at this base URL (requires -node and -advertise)")
		advertise    = flag.String("advertise", "", "cluster: base URL peers reach this node at (with -join)")
		leaveOnDrain = flag.Bool("leave-on-drain", false, "cluster: announce leave on shutdown, migrating this node's plans to the survivors before draining")
	)
	flag.Parse()

	svc, err := service.NewWithStore(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheN,
		RequestTimeout: *timeout,
		MaxIterations:  *maxIter,
		BatchWindow:    *batchWin,
		BatchMax:       *batchMax,
		TraceRing:      *traceRing,
		Admission:      *admission,
		SLOTarget:      *sloTarget,
		ChaosSeed:      *chaosSeed,
		StoreDir:       *storeDir,
	})
	if err != nil {
		return err
	}
	if *storeDir != "" {
		log.Printf("commfreed: plan store at %s (%d records)", *storeDir, storeRecords(svc))
		if *storeWarm {
			n, err := svc.WarmStart(context.Background())
			if err != nil {
				return fmt.Errorf("warm start: %w", err)
			}
			log.Printf("commfreed: warm start rehydrated %d plans", n)
		}
	}
	handler := svc.Handler()

	var node *cluster.Node
	var hbStop func()
	if *nodeName != "" || *peersFlag != "" || *joinVia != "" {
		var peers []cluster.Peer
		switch {
		case *joinVia != "":
			if *nodeName == "" || *advertise == "" {
				return errors.New("-join requires -node and -advertise")
			}
			if *peersFlag != "" {
				return errors.New("-join and -peers are mutually exclusive (the fleet teaches the joiner its members)")
			}
			peers = []cluster.Peer{{Name: *nodeName, URL: *advertise}}
		default:
			var err error
			peers, err = parsePeers(*peersFlag)
			if err != nil {
				return err
			}
		}
		var err error
		node, err = cluster.NewNode(svc, cluster.Config{
			Self:         *nodeName,
			Peers:        peers,
			Replicas:     *replicas,
			HedgeAfter:   *hedgeAfter,
			SuspectAfter: *suspect,
			HeartbeatS:   heartbeat.Seconds(),
		})
		if err != nil {
			return err
		}
		handler = node.Handler()
		// Heartbeats: the detector itself never reads wall time; the
		// daemon just ticks it on the configured interval.
		tick := time.NewTicker(*heartbeat)
		done := make(chan struct{})
		go func() {
			for {
				select {
				case <-tick.C:
					node.Detector().Tick()
				case <-done:
					return
				}
			}
		}()
		hbStop = func() { tick.Stop(); close(done) }
		log.Printf("commfreed: cluster mode, node %s of %d peers (replicas %d, hedge-after %s)",
			*nodeName, len(peers), *replicas, *hedgeAfter)
	}
	if *debug {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("commfreed: pprof mounted at /debug/pprof/")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("commfreed: listening on %s (%d workers, queue %d, cache %d entries)",
			*addr, *workers, *queue, *cacheN)
		errc <- srv.ListenAndServe()
	}()

	if *joinVia != "" {
		// Announce the join once the listener is up: the fleet's sync
		// broadcast and plan migrations arrive over our own HTTP surface.
		go func() {
			if err := announceJoin(*joinVia, *nodeName, *advertise); err != nil {
				log.Printf("commfreed: join via %s FAILED: %v (still serving standalone)", *joinVia, err)
				return
			}
			log.Printf("commfreed: joined fleet via %s as %s (epoch %d, %d members)",
				*joinVia, *nodeName, node.Epoch(), len(node.Members()))
		}()
	}

	select {
	case err := <-errc:
		return err // listener failed to start or died
	case <-ctx.Done():
	}

	log.Printf("commfreed: signal received, draining (limit %s)", *drainFor)
	if *leaveOnDrain && node != nil {
		// Leave the membership before refusing work: the leave epoch
		// migrates every plan this node holds to the survivors, so the
		// warm state outlives the process.
		if via, ok := leaveTarget(node); !ok {
			log.Printf("commfreed: leave-on-drain: no surviving peer to leave through")
		} else if err := announceLeave(via, *nodeName); err != nil {
			log.Printf("commfreed: leave via %s FAILED: %v (plans recompile at their new homes)", via, err)
		} else {
			log.Printf("commfreed: left fleet via %s, plans migrated", via)
		}
	}
	// Refuse new work first — cluster peers see 503 + Retry-After and
	// re-route to a replica instead of queueing behind the drain — then
	// stop accepting connections, wait for active handlers, and drain
	// the worker pool so queued work finishes too.
	svc.BeginDrain()
	if hbStop != nil {
		hbStop()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	svc.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("commfreed: drained, bye")
	return nil
}

// storeRecords reports the plan store's record count (0 without one).
func storeRecords(svc *service.Service) int64 {
	if st := svc.StoreStats(); st != nil {
		return st.Records
	}
	return 0
}

// announceJoin posts this node's join to a running fleet member,
// retrying briefly (the via node may itself still be booting).
func announceJoin(via, name, advertise string) error {
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			time.Sleep(500 * time.Millisecond)
		}
		err = postMembership(via, cluster.MembershipUpdate{
			Op:   "join",
			Peer: &cluster.Peer{Name: name, URL: advertise},
		})
		if err == nil {
			return nil
		}
	}
	return err
}

// announceLeave posts this node's leave to a surviving member.
func announceLeave(via, name string) error {
	return postMembership(via, cluster.MembershipUpdate{
		Op:   "leave",
		Peer: &cluster.Peer{Name: name},
	})
}

// leaveTarget picks a member other than self to route the leave through.
func leaveTarget(node *cluster.Node) (string, bool) {
	for _, p := range node.Members() {
		if p.Name != node.Self() {
			return p.URL, true
		}
	}
	return "", false
}

// postMembership POSTs one membership update and checks for 200.
func postMembership(base string, up cluster.MembershipUpdate) error {
	body, err := json.Marshal(up)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	res, err := client.Post(strings.TrimSuffix(base, "/")+"/v1/cluster/membership",
		"application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(res.Body, 4096))
		return fmt.Errorf("status %d: %s", res.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}
