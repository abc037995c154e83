// Package chaos is the deterministic fault-injection layer for the live
// service: it wraps the service's dialer/listener/conn surface
// (service.Transport) and subjects every directed link to a scheduled,
// seeded fault program — added latency and jitter, silent frame drops,
// duplication and reordering at frame granularity, byte corruption
// (exercising the internal/wire parse paths), full partitions with timed
// heals, and the asymmetric faults: one-directional loss overrides
// (lose), clock-skewed pacing (a link profile's skew, a writer whose
// pacing clock runs at a multiple of real time), and slow-then-burst
// profiles (burst_every, a link that sits silent and flushes at
// boundaries). A link is made lossy by its profile's drop or by lose, and
// the mesh is split by partition and rejoined by heal-all. Every fault is
// directional — each direction of a link is owned by its writer's
// endpoint — so loss, skew, and bursts on A→B leave B→A untouched.
//
// Faults are driven by a JSON Scenario, replayable the way a
// schedule-search Instance (internal/verify) is: the same scenario and
// seed produce the same fault timeline and — for a given frame sequence
// on a link — the same per-frame fault decisions and counters. Process
// crash/restart events are part of the scenario vocabulary but are
// executed by the driver (cmd/bvcload, the e2e tests), not the injector:
// killing a process is a lifecycle operation on the Service, not on its
// conns.
package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// Dur is a JSON-friendly duration: strings use time.ParseDuration syntax
// ("250ms", "1.5s"); bare numbers are milliseconds.
type Dur time.Duration

// D returns the duration as a time.Duration.
func (d Dur) D() time.Duration { return time.Duration(d) }

// UnmarshalJSON accepts "250ms"-style strings or numeric milliseconds.
func (d *Dur) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("chaos: duration %q: %w", s, err)
		}
		*d = Dur(v)
		return nil
	}
	ms, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("chaos: duration %s: %w", b, err)
	}
	*d = Dur(time.Duration(ms * float64(time.Millisecond)))
	return nil
}

// MarshalJSON renders the string form.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Wildcard matches any process id in a LinkFault endpoint.
const Wildcard = -1

// LinkFault is one directed link's static fault profile. From/To select
// the links it applies to (Wildcard matches every id); when several
// entries match a link, the last one wins whole — profiles do not merge
// field-by-field.
type LinkFault struct {
	// From/To are the sender and receiver process ids (Wildcard = any).
	From int `json:"from"`
	To   int `json:"to"`
	// Delay is added to every frame; Jitter adds a uniform [0, Jitter)
	// extra, drawn per frame from the link's seeded PRNG. Delivery order
	// within the link is preserved (delays are monotone).
	Delay  Dur `json:"delay,omitempty"`
	Jitter Dur `json:"jitter,omitempty"`
	// Drop, Duplicate, Reorder, Corrupt are per-frame probabilities in
	// [0, 1]: silently drop the frame, send it twice, swap it with the
	// next frame, or flip one body byte (the length prefix is preserved
	// so the stream stays framed and the receiver's parse path sees the
	// garbage).
	Drop      float64 `json:"drop,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	Reorder   float64 `json:"reorder,omitempty"`
	Corrupt   float64 `json:"corrupt,omitempty"`
	// Skew multiplies the link's pacing clock (delay, jitter draw and
	// burst period): a writer whose clock runs slow paces frames out at
	// Skew× the nominal durations. 0 means 1 (no skew).
	// Skew is asymmetric by construction — it applies to this direction
	// only — and changes no PRNG draw order.
	Skew float64 `json:"skew,omitempty"`
	// BurstEvery turns the link into a slow-then-burst profile: paced
	// releases are quantized up to the next multiple of BurstEvery on
	// the writer's clock, so the link sits silent and then flushes the
	// accumulated frames at each boundary. 0 disables. Order within the
	// link is preserved (the quantized releases stay monotone).
	BurstEvery Dur `json:"burst_every,omitempty"`
}

// Event actions.
const (
	// ActionPartition severs the mesh into Groups: every link crossing a
	// group boundary is isolated in both directions (writes and dials
	// refused with ErrLinkIsolated) and its established conns are killed,
	// so redial and backoff run. Isolation is lossless for a sender with
	// retransmission: refused frames are retained and flow at the heal.
	// Links within a group are healed. Processes not named in any group
	// form one implicit remainder group.
	ActionPartition = "partition"
	// ActionHealAll clears every isolation and loss override.
	ActionHealAll = "heal-all"
	// ActionCrash closes process Proc; executed by the driver.
	ActionCrash = "crash"
	// ActionRestart rebuilds process Proc on its old address at the
	// survivors' current membership epoch and re-establishes its links;
	// executed by the program replaying the scenario (bvcload).
	ActionRestart = "restart"
	// ActionReplace retires process Proc permanently and admits a
	// replacement at address Addr under the next membership epoch: the
	// program replaying the scenario starts a fresh process there and
	// Reconfigures every running survivor to epoch+1 with Proc's slot
	// re-addressed — no process learns a membership from its peers
	// (membership is a Service lifecycle operation).
	ActionReplace = "replace"
	// ActionLose sets the one-directional loss rate of From→To to Rate
	// from At on, overriding the static profile's Drop. Rate 0 restores
	// the profile. The loss draw stays in the fixed per-frame draw
	// order, so flipping the rate mid-run changes outcomes but not the
	// alignment of later decisions.
	ActionLose = "lose"
)

// Event is one scheduled fault transition at offset At from scenario
// start.
type Event struct {
	At     Dur     `json:"at"`
	Action string  `json:"action"`
	From   int     `json:"from,omitempty"`   // lose
	To     int     `json:"to,omitempty"`     // lose
	Groups [][]int `json:"groups,omitempty"` // partition
	Proc   int     `json:"proc,omitempty"`   // crash/restart/replace
	Addr   string  `json:"addr,omitempty"`   // replace: the successor's address
	Rate   float64 `json:"rate,omitempty"`   // lose: loss probability in [0, 1]
}

// Scenario is a complete, replayable fault program for one mesh run.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string `json:"name"`
	// Seed feeds every per-link fault PRNG; the fault timeline and all
	// per-frame decisions are a pure function of (scenario, seed, frame
	// sequence).
	Seed int64 `json:"seed"`
	// Duration is the suggested soak horizon for drivers; the effective
	// horizon is at least Horizon().
	Duration Dur `json:"duration,omitempty"`
	// Links are the static per-link fault profiles (last match wins).
	Links []LinkFault `json:"links,omitempty"`
	// Events are the scheduled fault transitions, applied in At order.
	Events []Event `json:"events,omitempty"`
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	var s Scenario
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("chaos: parse %s: %w", path, err)
	}
	return &s, nil
}

// Validate checks the scenario against a mesh of n processes.
func (s *Scenario) Validate(n int) error {
	if n < 2 {
		return fmt.Errorf("chaos: mesh of %d processes", n)
	}
	checkID := func(what string, id int, wild bool) error {
		if wild && id == Wildcard {
			return nil
		}
		if id < 0 || id >= n {
			return fmt.Errorf("chaos: %s id %d out of range for n=%d", what, id, n)
		}
		return nil
	}
	for i, lf := range s.Links {
		if err := checkID(fmt.Sprintf("links[%d].from", i), lf.From, true); err != nil {
			return err
		}
		if err := checkID(fmt.Sprintf("links[%d].to", i), lf.To, true); err != nil {
			return err
		}
		for _, p := range []struct {
			name string
			v    float64
		}{{"drop", lf.Drop}, {"duplicate", lf.Duplicate}, {"reorder", lf.Reorder}, {"corrupt", lf.Corrupt}} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("chaos: links[%d].%s = %g outside [0, 1]", i, p.name, p.v)
			}
		}
		if lf.Delay < 0 || lf.Jitter < 0 {
			return fmt.Errorf("chaos: links[%d] negative delay/jitter", i)
		}
		if lf.Skew < 0 || lf.BurstEvery < 0 {
			return fmt.Errorf("chaos: links[%d] negative skew/burst_every", i)
		}
	}
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("chaos: events[%d] negative time", i)
		}
		switch ev.Action {
		case ActionLose:
			if err := checkID(fmt.Sprintf("events[%d].from", i), ev.From, true); err != nil {
				return err
			}
			if err := checkID(fmt.Sprintf("events[%d].to", i), ev.To, true); err != nil {
				return err
			}
			if ev.Rate < 0 || ev.Rate > 1 {
				return fmt.Errorf("chaos: events[%d] lose rate %g outside [0, 1]", i, ev.Rate)
			}
		case ActionPartition:
			if len(ev.Groups) == 0 {
				return fmt.Errorf("chaos: events[%d] partition without groups", i)
			}
			seen := make(map[int]bool)
			for _, g := range ev.Groups {
				for _, id := range g {
					if err := checkID(fmt.Sprintf("events[%d].groups", i), id, false); err != nil {
						return err
					}
					if seen[id] {
						return fmt.Errorf("chaos: events[%d] process %d in two groups", i, id)
					}
					seen[id] = true
				}
			}
		case ActionHealAll:
		case ActionCrash, ActionRestart:
			if err := checkID(fmt.Sprintf("events[%d].proc", i), ev.Proc, false); err != nil {
				return err
			}
		case ActionReplace:
			if err := checkID(fmt.Sprintf("events[%d].proc", i), ev.Proc, false); err != nil {
				return err
			}
			if ev.Addr == "" {
				return fmt.Errorf("chaos: events[%d] replace without addr", i)
			}
		default:
			return fmt.Errorf("chaos: events[%d] unknown action %q", i, ev.Action)
		}
	}
	return nil
}

// Horizon is the scenario's own time extent: the declared Duration or the
// last event, whichever is later.
func (s *Scenario) Horizon() time.Duration {
	h := s.Duration.D()
	for _, ev := range s.Events {
		if ev.At.D() > h {
			h = ev.At.D()
		}
	}
	return h
}

// Profile resolves the static fault profile of the directed link
// from→to: the last matching Links entry, or the zero profile.
func (s *Scenario) Profile(from, to int) LinkFault {
	var prof LinkFault
	prof.From, prof.To = from, to
	for _, lf := range s.Links {
		if (lf.From == Wildcard || lf.From == from) && (lf.To == Wildcard || lf.To == to) {
			prof = lf
			prof.From, prof.To = from, to
		}
	}
	return prof
}

// LinkOp is one expanded timeline operation on a directed link owned by a
// local process: isolate or heal the link local→Peer, sever its
// established conns, or set its loss rate (lose, rate in Val).
type LinkOp struct {
	At   time.Duration
	Peer int
	Op   string  // ActionLose, "isolate", "sever", or "heal"
	Val  float64 // lose rate
}

// Timeline expands the scenario's transport events into the ordered
// operation list for one process's outbound links. It is a pure function
// of the scenario — the determinism anchor the injector schedules from
// and the replay tests compare against. Crash/restart/replace events are
// omitted (driver-level; see ProcEvents).
func (s *Scenario) Timeline(n, local int) []LinkOp {
	var ops []LinkOp
	emit := func(at Dur, peer int, op string, val float64) {
		if peer != local {
			ops = append(ops, LinkOp{At: at.D(), Peer: peer, Op: op, Val: val})
		}
	}
	for _, ev := range s.Events {
		switch ev.Action {
		case ActionLose:
			if ev.From != Wildcard && ev.From != local {
				continue
			}
			for peer := 0; peer < n; peer++ {
				if ev.To == Wildcard || ev.To == peer {
					emit(ev.At, peer, ActionLose, ev.Rate)
				}
			}
		case ActionHealAll:
			for peer := 0; peer < n; peer++ {
				emit(ev.At, peer, "heal", 0)
			}
		case ActionPartition:
			group := groupIndex(ev.Groups, n)
			for peer := 0; peer < n; peer++ {
				if peer == local {
					continue
				}
				if group[local] == group[peer] {
					emit(ev.At, peer, "heal", 0)
				} else {
					// Isolate before sever: a writer racing the sever
					// gets a refusal and retains its frames.
					emit(ev.At, peer, "isolate", 0)
					emit(ev.At, peer, "sever", 0)
				}
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}

// ProcEvents returns the crash/restart/replace events in At order — the
// driver's half of the schedule.
func (s *Scenario) ProcEvents() []Event {
	var evs []Event
	for _, ev := range s.Events {
		if ev.Action == ActionCrash || ev.Action == ActionRestart || ev.Action == ActionReplace {
			evs = append(evs, ev)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

// groupIndex maps each process id to its partition group; unlisted
// processes share the implicit remainder group.
func groupIndex(groups [][]int, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = len(groups) // remainder group
	}
	for g, members := range groups {
		for _, id := range members {
			if id >= 0 && id < n {
				idx[id] = g
			}
		}
	}
	return idx
}
