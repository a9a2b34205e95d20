// Package chaos is the deterministic fault-injection layer: seed-driven
// failure schedules for the simulated multicomputer, the block
// schedulers, and the compilation service.
//
// The paper's Theorems 1–4 guarantee zero inter-block communication,
// which makes every block an atomic, independently re-executable unit:
// a block's footprint is disjoint from every other block's (or privately
// copied, under duplication), so a crashed block can be rolled back and
// re-run with no cross-node coordination and the retried run is
// bit-identical to a fault-free one. This package exists to *prove*
// that property under injected failures rather than assume it.
//
// Design constraints, in order:
//
//   - deterministic and interleaving-independent: every injection
//     decision is a pure function of (seed, identity, attempt) via a
//     splitmix64-style hash — never of event arrival order — so a
//     chaos run is exactly replayable from its seed regardless of how
//     goroutines interleave, and a failing schedule can be handed to
//     loopgen.Shrink as a minimal (.cf, seed) repro;
//   - bounded: a schedule never injects more than MaxBlockFails
//     failures per (block, epoch), so block-granularity retry always
//     converges within a known attempt budget — or deliberately
//     exceeds it when a test wants the service-level degradation path;
//   - dependency-free: only the standard library, so machine, exec,
//     service, and conformance can all import it without cycles.
package chaos

import (
	"fmt"
	"sync/atomic"
)

// Config tunes schedule generation. Probabilities are in [0,1]; the
// zero value of any field keeps that fault kind disabled, and
// DefaultConfig returns the mix the conformance suite runs under.
type Config struct {
	// BlockFailProb is the per-(block,epoch) probability that the block
	// suffers at least one injected crash; MaxBlockFails bounds how
	// many consecutive attempts of that block fail (so retry with a cap
	// above it always converges).
	BlockFailProb float64
	MaxBlockFails int
	// PostCommitProb is, given a failing attempt, the probability the
	// crash lands *after* the block's commit — the retried attempt must
	// then recognize the completed work and not re-execute it.
	PostCommitProb float64
	// SlowNodeProb marks nodes as degraded; each block they run charges
	// up to MaxSlowS extra simulated seconds.
	SlowNodeProb float64
	MaxSlowS     float64
	// MsgLossProb / MaxMsgResends model lost host→node distribution
	// messages: the host retransmits (extra message + wire time), the
	// payload is delivered once.
	MsgLossProb   float64
	MaxMsgResends int
	// MsgDelayProb / MaxMsgDelayS add link latency to a host→node
	// distribution charge without losing it.
	MsgDelayProb float64
	MaxMsgDelayS float64
	// Cluster-membership faults (consumed by internal/cluster's failure
	// detector and in-process transport, not by the block executors):
	// NodeCrashProb is the per-(epoch,peer) probability that the peer
	// suffers one crash window of heartbeat rounds, MaxCrashRounds
	// bounds the window length, and CrashHorizon the round range in
	// which the window may start (default 16 when windows are enabled).
	NodeCrashProb  float64
	MaxCrashRounds int
	CrashHorizon   int
	// HeartbeatLossProb drops individual heartbeat probes between a
	// pair of live peers (asymmetric: a→b draws independently of b→a) —
	// a transient partition the failure detector must ride out.
	HeartbeatLossProb float64
	// Plan-store and migration faults (consumed by internal/store's
	// torn-write hook and internal/cluster's migration sender):
	// TornWriteProb is the per-write probability that a store Put is
	// torn — the file is truncated mid-record, so the CRC check fails on
	// the next read and the plan recompiles. MigrationDropProb is the
	// per-(epoch,record) probability that a rebalance migration send is
	// dropped — the new home must then recompile that plan on first
	// demand instead of serving the migrated copy.
	TornWriteProb     float64
	MigrationDropProb float64
}

// DefaultConfig is the conformance mix: every fault kind enabled, block
// failures bounded well below the executors' default retry cap.
func DefaultConfig() Config {
	return Config{
		BlockFailProb:  0.35,
		MaxBlockFails:  2,
		PostCommitProb: 0.25,
		SlowNodeProb:   0.2,
		MaxSlowS:       1e-3,
		MsgLossProb:    0.2,
		MaxMsgResends:  2,
		MsgDelayProb:   0.2,
		MaxMsgDelayS:   1e-3,
	}
}

// ClusterConfig is the membership-fault mix the cluster conformance
// dimension runs under: every peer the schedule elects (see
// PeerCrashVictim) crashes for a bounded window of heartbeat rounds,
// and a twentieth of heartbeats are lost in transit.
func ClusterConfig() Config {
	return Config{
		NodeCrashProb:     1,
		MaxCrashRounds:    6,
		CrashHorizon:      8,
		HeartbeatLossProb: 0.05,
	}
}

// Schedule is a failure plan: a pure function of (seed, config). It
// holds no mutable state and is safe for concurrent use.
type Schedule struct {
	Seed int64
	Cfg  Config
}

// NewSchedule derives the deterministic schedule for a seed.
func NewSchedule(seed int64, cfg Config) *Schedule {
	return &Schedule{Seed: seed, Cfg: cfg}
}

// Identity streams keep the per-purpose hash draws independent: the
// same (seed, block) must not correlate "does it fail" with "where
// does the failure land".
const (
	streamBlockFail = iota + 1
	streamFailCount
	streamPostCommit
	streamCut
	streamSlowNode
	streamMsgLoss
	streamMsgDelay
	streamJitter
	streamPeerCrash
	streamCrashStart
	streamCrashLen
	streamHeartbeat
	streamVictim
	streamTornWrite
	streamTornCut
	streamMigration
)

// mix is a splitmix64-style avalanche over the seed and identity words.
// Every schedule decision bottoms out here, so decisions depend only on
// identities, never on when the executor happens to ask.
func mix(words ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// unit maps a hash draw to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

func (s *Schedule) draw(stream int, ids ...int64) uint64 {
	words := make([]uint64, 0, 2+len(ids))
	words = append(words, uint64(s.Seed), uint64(stream))
	for _, id := range ids {
		words = append(words, uint64(id))
	}
	return mix(words...)
}

// BlockFailures returns how many consecutive attempts of the block fail
// in the given epoch (0 ≤ n ≤ MaxBlockFails). Epochs model service-level
// re-runs: a block that keeps a whole run down in epoch e may clear in
// epoch e+1, exactly like a transient node fault.
func (s *Schedule) BlockFailures(epoch, blockID int) int {
	if s == nil || s.Cfg.MaxBlockFails <= 0 {
		return 0
	}
	if unit(s.draw(streamBlockFail, int64(epoch), int64(blockID))) >= s.Cfg.BlockFailProb {
		return 0
	}
	return 1 + int(s.draw(streamFailCount, int64(epoch), int64(blockID))%uint64(s.Cfg.MaxBlockFails))
}

// PostCommit reports whether the given failing attempt crashes after
// the block's commit point (the retry must then find the work already
// durable) rather than mid-compute.
func (s *Schedule) PostCommit(epoch, blockID, attempt int) bool {
	if s == nil {
		return false
	}
	return unit(s.draw(streamPostCommit, int64(epoch), int64(blockID), int64(attempt))) < s.Cfg.PostCommitProb
}

// Cut returns how many of the block's n iterations a mid-compute crash
// executes before dying (0..n): the partial-write prefix the checkpoint
// restore must undo.
func (s *Schedule) Cut(epoch, blockID, attempt int, n int64) int64 {
	if s == nil || n <= 0 {
		return 0
	}
	return int64(s.draw(streamCut, int64(epoch), int64(blockID), int64(attempt)) % uint64(n+1))
}

// NodeDelayS returns the extra simulated seconds a degraded node
// charges per block (0 for healthy nodes).
func (s *Schedule) NodeDelayS(epoch, node int) float64 {
	if s == nil || s.Cfg.MaxSlowS <= 0 {
		return 0
	}
	h := s.draw(streamSlowNode, int64(epoch), int64(node))
	if unit(h) >= s.Cfg.SlowNodeProb {
		return 0
	}
	return unit(mix(h)) * s.Cfg.MaxSlowS
}

// MsgResends returns how many times the host must retransmit its
// distribution message to the node (lost messages), and MsgDelayS the
// extra link latency on the delivery that succeeds.
func (s *Schedule) MsgResends(epoch, node int) int {
	if s == nil || s.Cfg.MaxMsgResends <= 0 {
		return 0
	}
	h := s.draw(streamMsgLoss, int64(epoch), int64(node))
	if unit(h) >= s.Cfg.MsgLossProb {
		return 0
	}
	return 1 + int(mix(h)%uint64(s.Cfg.MaxMsgResends))
}

// MsgDelayS is the injected link latency of the node's distribution
// delivery (0 when the link is healthy).
func (s *Schedule) MsgDelayS(epoch, node int) float64 {
	if s == nil || s.Cfg.MaxMsgDelayS <= 0 {
		return 0
	}
	h := s.draw(streamMsgDelay, int64(epoch), int64(node))
	if unit(h) >= s.Cfg.MsgDelayProb {
		return 0
	}
	return unit(mix(h)) * s.Cfg.MaxMsgDelayS
}

// PeerCrashWindow returns the heartbeat-round window [start, start+n)
// during which the peer is down in the epoch (n = 0 means the peer
// stays up). Pure in (seed, epoch, peer): every router and detector in
// a cluster derives the same window, so a crash replays identically
// regardless of which node observes it first.
func (s *Schedule) PeerCrashWindow(epoch, peer int) (start, n int) {
	if s == nil || s.Cfg.MaxCrashRounds <= 0 {
		return 0, 0
	}
	if unit(s.draw(streamPeerCrash, int64(epoch), int64(peer))) >= s.Cfg.NodeCrashProb {
		return 0, 0
	}
	horizon := s.Cfg.CrashHorizon
	if horizon <= 0 {
		horizon = 16
	}
	start = int(s.draw(streamCrashStart, int64(epoch), int64(peer)) % uint64(horizon))
	n = 1 + int(s.draw(streamCrashLen, int64(epoch), int64(peer))%uint64(s.Cfg.MaxCrashRounds))
	return start, n
}

// PeerDown reports whether the peer is inside its crash window at the
// given heartbeat round.
func (s *Schedule) PeerDown(epoch, peer, round int) bool {
	start, n := s.PeerCrashWindow(epoch, peer)
	return n > 0 && round >= start && round < start+n
}

// PeerCrashVictim elects which of n peers crashes in the epoch — the
// single-victim schedules the cluster conformance dimension replays.
func (s *Schedule) PeerCrashVictim(epoch, n int) int {
	if s == nil || n <= 0 {
		return 0
	}
	return int(s.draw(streamVictim, int64(epoch)) % uint64(n))
}

// PeerCrashed is the single-victim crash predicate the cluster layer
// replays: peer (one of n) is down at the round iff it is the epoch's
// elected victim AND the round lies inside the victim's crash window.
// Every node of a fleet derives the same answer from the seed alone,
// so detector belief and injected reality cannot diverge.
func (s *Schedule) PeerCrashed(epoch, n, peer, round int) bool {
	if s == nil || n <= 0 {
		return false
	}
	if s.PeerCrashVictim(epoch, n) != peer {
		return false
	}
	return s.PeerDown(epoch, peer, round)
}

// HeartbeatDrop reports whether the from→to heartbeat probe of the
// given round is lost in transit (a transient one-way partition).
func (s *Schedule) HeartbeatDrop(epoch, round, from, to int) bool {
	if s == nil || s.Cfg.HeartbeatLossProb <= 0 {
		return false
	}
	return unit(s.draw(streamHeartbeat, int64(epoch), int64(round), int64(from), int64(to))) < s.Cfg.HeartbeatLossProb
}

// TornWrite decides whether the seq-th store write (of size bytes) is
// torn, and if so how many bytes land on disk before the tear (always a
// strict prefix, so the CRC check catches it). Pure in (seed, seq):
// the store's write sequence is deterministic for a deterministic
// workload, so a torn-write replay is exact. Shaped to plug directly
// into store.Options.TornWrite.
func (s *Schedule) TornWrite(seq int64, size int) (n int, torn bool) {
	if s == nil || s.Cfg.TornWriteProb <= 0 || size <= 0 {
		return size, false
	}
	if unit(s.draw(streamTornWrite, seq)) >= s.Cfg.TornWriteProb {
		return size, false
	}
	return int(s.draw(streamTornCut, seq) % uint64(size)), true
}

// MigrationDrop reports whether the migration send of the record (by
// its content-address hash) during the given membership epoch is lost.
// Pure in (seed, epoch, keyHash): both the old home deciding to skip
// the send and any test predicting the loss derive the same answer.
func (s *Schedule) MigrationDrop(membershipEpoch int64, keyHash uint64) bool {
	if s == nil || s.Cfg.MigrationDropProb <= 0 {
		return false
	}
	return unit(mix(uint64(s.Seed), uint64(streamMigration), uint64(membershipEpoch), keyHash)) < s.Cfg.MigrationDropProb
}

// Jitter returns a deterministic backoff jitter fraction in [0,1) for a
// service-level retry — replayable, unlike rand-based jitter.
func (s *Schedule) Jitter(attempt int) float64 {
	if s == nil {
		return 0
	}
	return unit(s.draw(streamJitter, int64(attempt)))
}

// FaultError is the error a chaos-injected crash surfaces once a
// block's retry budget is exhausted; the service treats it (and only
// it) as retryable at whole-run granularity.
type FaultError struct {
	Node    int
	Block   int
	Attempt int
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("chaos: injected fault on node %d, block %d, attempt %d (retry budget exhausted)", e.Node, e.Block, e.Attempt)
}

// Stats is a snapshot of what an Injector actually injected.
type Stats struct {
	// Faults counts injected block crashes (pre- and post-commit);
	// Retries counts block re-runs they forced; PostCommit counts the
	// crashes that landed after a commit (recovered via the completion
	// checkpoint, not re-execution).
	Faults     int64 `json:"faults"`
	Retries    int64 `json:"retries"`
	PostCommit int64 `json:"post_commit"`
	// MsgResends counts retransmitted distribution messages; DelayNS
	// accumulates injected latency (links + slow nodes) in simulated
	// nanoseconds.
	MsgResends int64 `json:"msg_resends"`
	DelayNS    int64 `json:"delay_ns"`
}

// Injector is the runtime face of a schedule: the executors consult it
// at each injection point, and it keeps atomic counters of everything
// it actually injected. Epoch advances on service-level re-runs so a
// retried run draws a fresh (but still seed-deterministic) schedule.
type Injector struct {
	sched *Schedule
	epoch atomic.Int64

	faults     atomic.Int64
	retries    atomic.Int64
	postCommit atomic.Int64
	msgResends atomic.Int64
	delayNS    atomic.Int64
}

// NewInjector builds an injector over the schedule. A nil schedule (or
// a nil *Injector anywhere) injects nothing.
func NewInjector(sched *Schedule) *Injector {
	return &Injector{sched: sched}
}

// Default is NewInjector(NewSchedule(seed, DefaultConfig())).
func Default(seed int64) *Injector {
	return NewInjector(NewSchedule(seed, DefaultConfig()))
}

// NextEpoch advances the schedule epoch (called by service-level retry
// before re-running a faulted execution).
func (in *Injector) NextEpoch() {
	if in != nil {
		in.epoch.Add(1)
	}
}

// BlockFault reports whether the given attempt of the block crashes,
// and where: post=true means after the commit point. Firing faults are
// counted. Nil-safe.
func (in *Injector) BlockFault(blockID, attempt int) (fail, post bool) {
	if in == nil {
		return false, false
	}
	epoch := int(in.epoch.Load())
	if attempt >= in.sched.BlockFailures(epoch, blockID) {
		return false, false
	}
	in.faults.Add(1)
	if in.sched.PostCommit(epoch, blockID, attempt) {
		in.postCommit.Add(1)
		return true, true
	}
	return true, false
}

// Cut is the mid-compute crash point of a failing attempt (how many of
// the block's n iterations run before the crash).
func (in *Injector) Cut(blockID, attempt int, n int64) int64 {
	if in == nil {
		return n
	}
	return in.sched.Cut(int(in.epoch.Load()), blockID, attempt, n)
}

// CountRetry records one block re-run.
func (in *Injector) CountRetry() {
	if in != nil {
		in.retries.Add(1)
	}
}

// NodeDelayS is the slow-node penalty of one block on the node; the
// injected seconds are counted into the stats. Nil-safe.
func (in *Injector) NodeDelayS(node int) float64 {
	if in == nil {
		return 0
	}
	d := in.sched.NodeDelayS(int(in.epoch.Load()), node)
	if d > 0 {
		in.delayNS.Add(int64(d * 1e9))
	}
	return d
}

// DistFault implements machine.FaultInjector: retransmissions and link
// latency for the host's distribution charge to the node. Nil-safe.
func (in *Injector) DistFault(node int) (resends int, delayS float64) {
	if in == nil {
		return 0, 0
	}
	epoch := int(in.epoch.Load())
	resends = in.sched.MsgResends(epoch, node)
	delayS = in.sched.MsgDelayS(epoch, node)
	if resends > 0 {
		in.msgResends.Add(int64(resends))
	}
	if delayS > 0 {
		in.delayNS.Add(int64(delayS * 1e9))
	}
	return resends, delayS
}

// Jitter is the deterministic backoff jitter for a service retry.
func (in *Injector) Jitter(attempt int) float64 {
	if in == nil {
		return 0
	}
	return in.sched.Jitter(attempt)
}

// Stats snapshots the injection counters (zero for a nil injector).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Faults:     in.faults.Load(),
		Retries:    in.retries.Load(),
		PostCommit: in.postCommit.Load(),
		MsgResends: in.msgResends.Load(),
		DelayNS:    in.delayNS.Load(),
	}
}

// MaxFailuresPerBlock is the largest number of consecutive failing
// attempts the schedule can inject per block in one epoch — the bound
// the conformance suite checks retry counts against.
func (in *Injector) MaxFailuresPerBlock() int {
	if in == nil {
		return 0
	}
	return in.sched.Cfg.MaxBlockFails
}
