package engine

import (
	"squigglefilter/internal/normalize"
	"squigglefilter/internal/sdtw"
)

// Session is an incremental classification of one read: raw signal arrives
// in arbitrary chunk sizes (per-channel MinION deliveries are ~0.1 s of
// samples) and a verdict is emitted the moment a stage boundary is
// crossed, without waiting for the read to finish — the live Read Until
// deployment loop of paper Section 3.
//
// A session holds exactly the state the accelerator parks per read:
//
//   - the resumable DP row (sdtw.Row — what the last PE streams to DRAM
//     between stages);
//   - the raw-sample buffer of the current, not-yet-complete stage chunk
//     (the normalizer works on whole stage windows, so samples are staged
//     until the boundary arrives);
//   - the stage cursor and the running Result.
//
// Feed consumes a chunk and reports the classification so far; once it
// returns done=true the read is decided and further chunks are ignored.
// Finalize ends the read early (the molecule finished translocating): any
// buffered partial stage is evaluated as the final stage, so Finalize
// after feeding a whole read is bit-identical to one-shot
// Backend.Classify — the one-shot path is in fact implemented as a
// Session fed once.
//
// A Session is single-read and single-goroutine; run one session per live
// channel and let many sessions share a Pipeline (Pipeline.NewSession),
// which multiplexes their DP work over the instance pool.
type Session struct {
	stages []sdtw.Stage
	// extend runs the back-end DP kernel over one normalized stage chunk.
	// For direct back-end sessions it is the kernel itself (infallible);
	// for pipeline sessions it borrows an instance through the scheduler
	// for the duration of the call and errors when the session's context
	// is cancelled while waiting.
	extend func(row *sdtw.Row, chunk []int8, st *Stats) (sdtw.IntResult, error)
	// release returns the pooled state to its pool once the session is
	// decided.
	release func(*sessionState)

	// st is the pooled state row, buf and norm were taken from; finish
	// hands them back through it.
	st       *sessionState
	row      *sdtw.Row
	buf      []int16 // raw samples of the current incomplete stage chunk
	norm     []int8  // normalized stage chunk, reused across stages
	consumed int     // samples already normalized and extended
	stage    int     // next stage to evaluate
	res      Result
	done     bool
	err      error
}

// sessionState is what a session borrows from its back-end's pool for one
// read: the resumable DP row and the two staging buffers, which share the
// row's lifetime so a warm back-end serves reads without allocating them,
// and on a sharded pipeline the wavefront over the row.
type sessionState struct {
	row  *sdtw.Row
	buf  []int16
	norm []int8
	wave *wavefront
}

func newSessionState(row *sdtw.Row) any { return &sessionState{row: row} }

func newSession(stages []sdtw.Stage, ps *sessionState,
	extend func(*sdtw.Row, []int8, *Stats) (sdtw.IntResult, error), release func(*sessionState)) *Session {
	return &Session{
		stages:  stages,
		extend:  extend,
		release: release,
		st:      ps,
		row:     ps.row,
		buf:     ps.buf[:0],
		norm:    ps.norm,
		res:     Result{Decision: sdtw.Continue, EndPos: -1},
	}
}

// Feed appends a chunk of raw 10-bit samples and evaluates every stage
// boundary the signal has now crossed. It returns the classification so
// far and whether the read is decided (Accept or Reject); before the
// first boundary the decision is Continue. Once done, further chunks are
// ignored (the pore is either ejecting or sequencing to completion) and
// the decided result is returned unchanged.
func (s *Session) Feed(chunk []int16) (Result, bool) {
	if s.done {
		return s.res, true
	}
	// While nothing is buffered, consume whole stage chunks straight from
	// the caller's slice; only the incomplete tail is copied. This keeps
	// the one-shot Classify wrapper free of per-read signal copies.
	for len(s.buf) == 0 && s.stage < len(s.stages) {
		need := s.stages[s.stage].PrefixSamples - s.consumed
		if len(chunk) < need {
			break
		}
		s.runStage(chunk[:need:need], false)
		if s.done {
			return s.res, true
		}
		chunk = chunk[need:]
	}
	s.buf = append(s.buf, chunk...)
	for s.stage < len(s.stages) {
		need := s.stages[s.stage].PrefixSamples - s.consumed
		if len(s.buf) < need {
			break
		}
		s.runStage(s.buf[:need:need], false)
		if s.done {
			return s.res, true
		}
		n := copy(s.buf, s.buf[need:])
		s.buf = s.buf[:n]
	}
	return s.res, s.done
}

// Finalize signals that the read ended. A buffered partial stage is
// evaluated as the final stage (a read that ends is decided with whatever
// signal exists); a read that ended exactly on an undecided stage
// boundary upgrades that stage's Continue to Accept, matching the
// one-shot path. A session that never saw a sample keeps the Continue
// verdict — the zero-length-read guard: no empty chunk ever reaches the
// normalizer or a kernel. Finalize is idempotent and releases the
// session's DP row.
func (s *Session) Finalize() Result {
	if s.done {
		return s.res
	}
	switch {
	case len(s.buf) > 0 && s.stage < len(s.stages):
		// runStage with final=true always decides (Accept or Reject).
		s.runStage(s.buf, true)
	case len(s.res.PerStage) > 0:
		// The read ended exactly at the last evaluated boundary: that
		// stage was the final look after all.
		last := &s.res.PerStage[len(s.res.PerStage)-1]
		if last.Decision == sdtw.Continue {
			last.Decision = sdtw.Accept
			s.res.Decision = sdtw.Accept
		}
	}
	if !s.done {
		s.finish()
	}
	return s.res
}

// Stream feeds a read's signal in chunkSamples-sized deliveries (<= 0
// feeds everything at once), stopping at the first decision, then
// finalizes. The returned bool reports whether a stage decided before
// the signal ended — the only case a live loop can act on with an
// ejection; a read that ends undecided is finalized for its verdict but
// has already left the pore.
func (s *Session) Stream(samples []int16, chunkSamples int) (Result, bool) {
	done := streamChunks(samples, chunkSamples, func(chunk []int16) bool {
		_, decided := s.Feed(chunk)
		return decided
	})
	// Idempotent when already decided; decides the trailing partial
	// stage otherwise.
	return s.Finalize(), done
}

// streamChunks is the chunk loop behind every session's Stream: it hands
// samples to feed in chunkSamples-sized deliveries (<= 0 delivers
// everything at once) until feed reports the read decided, and returns
// whether it did.
func streamChunks(samples []int16, chunkSamples int, feed func([]int16) bool) bool {
	if chunkSamples <= 0 {
		chunkSamples = len(samples)
	}
	done := false
	for off := 0; off < len(samples) && !done; off += chunkSamples {
		done = feed(samples[off:min(off+chunkSamples, len(samples))])
	}
	return done
}

// Decided reports whether the session has reached an Accept or Reject.
// A finalized session whose read delivered no signal stays undecided
// (its verdict is Continue).
func (s *Session) Decided() bool { return s.res.Decision != sdtw.Continue }

// Err reports why the session stopped without deciding: non-nil exactly
// when the session's context was cancelled while its DP work waited for
// an instance (Pipeline.NewSessionContext). A cancelled session behaves
// like an abandoned one — done, row released, verdict unchanged.
func (s *Session) Err() error { return s.err }

// Abandon stops the session without deciding it: the DP row is released,
// buffered signal is dropped, and the verdict stays whatever the last
// evaluated stage reported (Continue when no boundary decided). Further
// Feed calls are ignored and Finalize returns the abandoned result
// unchanged. A PanelSession abandons targets its pruning policy has ruled
// out; a live loop may abandon a read it has lost interest in (the pore
// keeps sequencing, the accelerator just stops paying DP for it).
// Abandon is idempotent and safe to interleave with Finalize — the row is
// released exactly once either way.
func (s *Session) Abandon() Result {
	if !s.done {
		s.finish()
	}
	return s.res
}

// stageDue reports whether delivering n more raw samples — or, when
// final, ending the read — makes the session evaluate a stage: the DP a
// panel delivery is worth sharing out for.
func (s *Session) stageDue(n int, final bool) bool {
	if s.done || s.stage >= len(s.stages) {
		return false
	}
	if final {
		return len(s.buf) > 0
	}
	return len(s.buf)+n >= s.stages[s.stage].PrefixSamples-s.consumed
}

// SamplesBuffered returns the raw samples parked awaiting the next stage
// boundary (diagnostics for schedulers).
func (s *Session) SamplesBuffered() int { return len(s.buf) }

// runStage normalizes one complete (or, when final, trailing partial)
// stage chunk as a single window, extends the DP row, and applies the
// stage threshold. final marks the read's last signal, which makes this
// stage terminal regardless of its position in the schedule.
func (s *Session) runStage(raw []int16, final bool) {
	s.norm = normalize.ApplyInt8Into(s.norm, raw)
	r, err := s.extend(s.row, s.norm, &s.res.Stats)
	if err != nil {
		// The session's context was cancelled while waiting for an
		// instance: abandon without a decision. The verdict stays
		// whatever the last evaluated stage reported and Err records the
		// cause.
		s.err = err
		s.finish()
		return
	}
	s.consumed += len(raw)
	stage := s.stages[s.stage]
	last := final || s.stage == len(s.stages)-1
	sr := sdtw.StageResult{Stage: s.stage, Samples: s.consumed, Cost: r.Cost, EndPos: r.EndPos}
	switch {
	case r.Cost > stage.Threshold:
		sr.Decision = sdtw.Reject
	case last:
		sr.Decision = sdtw.Accept
	default:
		sr.Decision = sdtw.Continue
	}
	s.res.PerStage = append(s.res.PerStage, sr)
	s.res.Decision = sr.Decision
	s.res.Cost = r.Cost
	s.res.EndPos = r.EndPos
	s.res.SamplesUsed = s.consumed
	s.stage++
	if sr.Decision != sdtw.Continue {
		s.finish()
	}
}

// finish marks the session decided and returns the DP row and staging
// buffers (kept at their grown capacity) to the pool.
func (s *Session) finish() {
	s.done = true
	if s.st != nil {
		s.st.buf, s.st.norm = s.buf[:0], s.norm[:0]
		if s.release != nil {
			s.release(s.st)
		}
		s.st = nil
	}
	s.row, s.buf, s.norm = nil, nil, nil
}
