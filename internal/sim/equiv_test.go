package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The equivalence oracle: small random process programs whose complete
// observable behaviour — every clock reading, every drained (From, seq,
// Arrival) list, the final charges — must not depend on which engine ran
// them, on the sequential engine's lookahead, or on an armed checkpoint. It
// sits below machine, so it reaches schedules no machine model produces
// (equal clocks everywhere, arrivals landing exactly on a horizon, waits that
// time out at another process's wake).

// eqOp is one step of a process's script.
type eqOp struct {
	kind    eqKind
	a, b, c int64
}

type eqKind uint8

const (
	eqCharge    eqKind = iota // Charge(Category(a), b)
	eqPost                    // Post(a, arrival now+b) with handler c; b >= lookahead unless a is the process itself
	eqPoll                    // Poll
	eqHas                     // HasMessage
	eqWait                    // WaitMessage if a lower-numbered process still owes a goodbye, else WaitMessageUntil(now+a)
	eqWaitUntil               // WaitMessageUntil(now+a)
	eqReturnIf                // return when the messages drained so far number a multiple of a
	eqKinds
)

// eqGoodbye is the handler of the message every process posts to every other
// one as it returns. Process 0 never blocks without a deadline, so its
// goodbyes are certain; process i blocks without one only while a goodbye
// from below is still owed: by induction every process returns, and no
// generated program deadlocks.
const eqGoodbye = 1

// eqPing is the handler of a message its receiver answers (one lookahead
// later, as it drains it): the request/reply shape of the real runtimes, and
// the one that makes a sender's own post bound its horizon.
const eqPing = 2

type eqProgram struct {
	lookahead Time
	ckAt      Time
	procs     [][]eqOp
}

// eqSource deals a program's choices from a byte string, so that the fuzzer's
// mutations are edits of the program; exhausted, it deals zeros (no further
// ops).
type eqSource struct{ data []byte }

func (s *eqSource) next(n int) int64 {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int64(int(b) % n)
}

// eqGenerate builds the program data encodes: 2–17 processes of up to 24 ops.
// Durations are small multiples of half the lookahead (plus an occasional odd
// cycle), so equal times — the cases the horizon rules are about — are common.
func eqGenerate(data []byte) eqProgram {
	s := &eqSource{data}
	la := []Time{2, 10, 100, 550}[s.next(4)]
	span := func() int64 { return s.next(5)*int64(la)/2 + s.next(2) }
	pr := eqProgram{lookahead: la, ckAt: 1 + Time(s.next(12))*la/2, procs: make([][]eqOp, 2+s.next(16))}
	for id := range pr.procs {
		ops := make([]eqOp, s.next(25))
		for i := range ops {
			op := eqOp{kind: eqKind(s.next(int(eqKinds)))}
			switch op.kind {
			case eqCharge:
				op.a, op.b = s.next(int(Idle)), span()
			case eqPost:
				op.a, op.b, op.c = s.next(len(pr.procs)), span(), eqPing*s.next(2)
				if int(op.a) != id {
					op.b += int64(la)
				}
			case eqWait, eqWaitUntil:
				op.a = span()
			case eqReturnIf:
				op.a = 2 + s.next(3)
			}
			ops[i] = op
		}
		pr.procs[id] = ops
	}
	return pr
}

// body interprets process id's script, logging everything the process can
// observe into its own log.
func (pr *eqProgram) body(log *[]int64) func(p *Proc) {
	return func(p *Proc) {
		drained, owed := int64(0), p.ID()
		note := func(ms []Message) {
			*log = append(*log, int64(p.Now()), int64(len(ms)))
			for _, m := range ms {
				*log = append(*log, int64(m.From), int64(m.seq), int64(m.Arrival))
				switch {
				case m.Handler == eqGoodbye && m.From < p.ID():
					owed--
				case m.Handler == eqPing && m.From != p.ID():
					p.Post(m.From, Message{Arrival: p.Now() + pr.lookahead})
				}
			}
			drained += int64(len(ms))
		}
	script:
		for _, op := range pr.procs[p.ID()] {
			switch op.kind {
			case eqCharge:
				p.Charge(Category(op.a), Time(op.b))
			case eqPost:
				p.Post(int(op.a), Message{Arrival: p.Now() + Time(op.b), Handler: int(op.c)})
			case eqPoll:
				note(p.Poll())
			case eqHas:
				has := int64(0)
				if p.HasMessage() {
					has = 1
				}
				*log = append(*log, int64(p.Now()), has)
			case eqWait:
				if owed > 0 {
					note(p.WaitMessage())
				} else {
					note(p.WaitMessageUntil(p.Now() + Time(op.a)))
				}
			case eqWaitUntil:
				note(p.WaitMessageUntil(p.Now() + Time(op.a)))
			case eqReturnIf:
				if drained%op.a == 0 {
					break script
				}
			}
		}
		for q := range pr.procs {
			if q != p.ID() {
				p.Post(q, Message{Arrival: p.Now() + pr.lookahead, Handler: eqGoodbye})
			}
		}
	}
}

// eqResult is everything one run of a program produced.
type eqResult struct {
	makespan Time
	logs     [][]int64 // per process: its log, then final clock and charges
	snap     []byte    // EncodeProcs at the checkpoint boundary; nil if it never fired
}

func (pr *eqProgram) run(e Engine, checkpoint bool) (eqResult, error) {
	res := eqResult{logs: make([][]int64, len(pr.procs))}
	for id := range pr.procs {
		e.Spawn(pr.body(&res.logs[id]))
	}
	if checkpoint {
		e.CheckpointAt(pr.ckAt, func() {
			var w SnapWriter
			EncodeProcs(&w, e.Procs())
			res.snap = w.Bytes()
		})
	}
	var err error
	res.makespan, err = e.Run()
	for id, p := range e.Procs() {
		res.logs[id] = append(res.logs[id], int64(p.Now()))
		for _, c := range p.Charges() {
			res.logs[id] = append(res.logs[id], int64(c))
		}
	}
	return res, err
}

// eqCheck runs the program data encodes under every engine configuration,
// with and without an armed checkpoint, and fails the test at the first
// difference from the reference run (sequential, lookahead 0, no checkpoint).
// It reports whether the program ran long enough for its checkpoint to fire.
func eqCheck(t *testing.T, data []byte) (fired bool) {
	t.Helper()
	pr := eqGenerate(data)
	engines := []struct {
		name      string
		kind      EngineKind
		lookahead Time
		workers   int
	}{
		{"sequential/la=0", Sequential, 0, 0},
		{"sequential", Sequential, pr.lookahead, 0},
		{"parallel-w1", Parallel, pr.lookahead, 1},
		{"parallel-w3", Parallel, pr.lookahead, min(3, len(pr.procs))},
	}
	var ref, refCk *eqResult
	for _, eng := range engines {
		for _, checkpoint := range []bool{false, true} {
			what := fmt.Sprintf("%s (checkpoint %v, lookahead %d, %d procs)", eng.name, checkpoint, pr.lookahead, len(pr.procs))
			got, err := pr.run(mustEngine(t, eng.kind, eng.lookahead, Tuning{Workers: eng.workers}), checkpoint)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if ref == nil {
				ref = &got
			}
			if got.makespan != ref.makespan {
				t.Fatalf("%s: makespan %d, reference %d", what, got.makespan, ref.makespan)
			}
			for id := range got.logs {
				if !slices.Equal(got.logs[id], ref.logs[id]) {
					t.Fatalf("%s: process %d logged\n%v\nreference\n%v", what, id, got.logs[id], ref.logs[id])
				}
			}
			if !checkpoint {
				continue
			}
			if refCk == nil {
				refCk = &got
			}
			if !bytes.Equal(got.snap, refCk.snap) {
				t.Fatalf("%s: checkpoint at %d captured %d bytes that differ from the reference's %d",
					what, pr.ckAt, len(got.snap), len(refCk.snap))
			}
		}
	}
	return refCk.snap != nil
}

// eqCorpus is the fixed corpus: program encodings drawn from seeded PRNGs.
func eqCorpus() [][]byte {
	corpus := make([][]byte, 200)
	for seed := range corpus {
		corpus[seed] = make([]byte, 256+seed*4)
		rand.New(rand.NewSource(int64(seed))).Read(corpus[seed])
	}
	return corpus
}

func TestEngineEquivalence(t *testing.T) {
	fired := 0
	for seed, data := range eqCorpus() {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			if eqCheck(t, data) {
				fired++
			}
		})
	}
	// The oracle is only as good as its programs: most must run long enough
	// for their checkpoint to fire.
	if fired < 100 {
		t.Fatalf("checkpoint fired in only %d of 200 corpus programs", fired)
	}
}

func FuzzEngineEquivalence(f *testing.F) {
	for _, data := range eqCorpus()[:32] {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { eqCheck(t, data) })
}
