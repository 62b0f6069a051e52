// Package dynamic implements PATCHECKO's second stage: candidate-function
// validation and similarity ranking from dynamic features.
//
// Following §III-B/III-C of the paper: candidates surviving the static
// stage are executed under the CVE function's execution environments and
// profiled into 21-dimensional dynamic feature vectors (Table II);
// similarity to the reference is the Minkowski distance with p=3 averaged
// over the K environments (equations (1) and (2)). Smaller is more similar.
//
// # Failure model
//
// The paper discards a candidate outright when it "triggers a system
// exception". Real firmware functions trap constantly under fixed execution
// environments, so this implementation degrades instead of discarding
// blindly: a trapping execution yields a truncated-but-usable EnvProfile —
// the Table II trace up to the trap, tagged with the trap — and ranking
// weights each environment by how much of it completed. A candidate is
// excluded only when no environment completes, and exclusions carry their
// reason instead of vanishing silently. Candidates that complete every
// environment are ranked exactly as the paper's rule would rank them:
// completion is the primary sort key, so partially-profiled candidates can
// never displace fully-validated ones.
package dynamic

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disasm"
	"repro/internal/emu"
	"repro/internal/minic"
	"repro/internal/obs"
)

// NumDynamic is the dynamic feature vector width (Table II).
const NumDynamic = 21

// Names lists the Table II feature names in vector order.
var Names = [NumDynamic]string{
	"binary_defined_fun_call_num",
	"min_stack_depth", "max_stack_depth", "avg_stack_depth", "std_stack_depth",
	"instruction_num", "unique_instruction_num",
	"call_instruction_num", "arithmetic_instruction_num", "branch_instruction_num",
	"load_instruction_num", "store_instruction_num",
	"max_branch_frequency", "max_arith_frequency",
	"mem_heap_access", "mem_stack_access", "mem_lib_access",
	"mem_anon_access", "mem_others_access",
	"library_call_num", "syscall_num",
}

// idxInstrs is the vector slot of instruction_num (F6), the feature the
// completion weighting measures trace length with.
const idxInstrs = 5

// Profile is one execution's dynamic feature vector.
type Profile [NumDynamic]float64

// MinkowskiP is the paper's distance exponent ("In our case, we set p=3").
const MinkowskiP = 3.0

// Minkowski computes the Minkowski distance of order p between raw
// profiles (equation (1) verbatim).
func Minkowski(a, b Profile, p float64) float64 {
	var sum float64
	for i := range a {
		sum += math.Pow(math.Abs(a[i]-b[i]), p)
	}
	return math.Pow(sum, 1/p)
}

// MinkowskiScaled applies the distance to log-scaled features. The paper
// notes that "the instruction execution traces of these functions may
// differ drastically for the same input" when compilation flags differ and
// that the analysis must therefore compare semantic rather than raw
// behaviour; log scaling makes count features compare by ratio, which is
// what keeps the same source function recognizable across optimization
// levels (an O0 build executes several times more instructions than O2).
func MinkowskiScaled(a, b Profile, p float64) float64 {
	var sum float64
	for i := range a {
		sum += math.Pow(math.Abs(slog(a[i])-slog(b[i])), p)
	}
	return math.Pow(sum, 1/p)
}

func slog(x float64) float64 {
	if x < 0 {
		return -math.Log1p(-x)
	}
	return math.Log1p(x)
}

// Similarity is equation (2): the (scaled) Minkowski distance averaged
// over the K execution environments. Both profile sets must have equal
// length K. Smaller is more similar; identical traces score exactly 0.
func Similarity(f, g []Profile) float64 {
	return similarity(f, g, MinkowskiScaled)
}

// SimilarityRaw averages the unscaled distance — the paper's literal
// equation (2). The ablation benchmarks compare it against the scaled form.
func SimilarityRaw(f, g []Profile) float64 {
	return similarity(f, g, Minkowski)
}

func similarity(f, g []Profile, dist func(Profile, Profile, float64) float64) float64 {
	k := len(f)
	if len(g) < k {
		k = len(g)
	}
	if k == 0 {
		return math.Inf(1)
	}
	var sum float64
	for i := 0; i < k; i++ {
		sum += dist(f[i], g[i], MinkowskiP)
	}
	return sum / float64(k)
}

// DefaultStepLimit bounds candidate executions.
const DefaultStepLimit = 1 << 20

// Exec bundles the per-execution bounds threaded from the analyzer down to
// every emulator run.
type Exec struct {
	// Steps is the instruction budget per execution (DefaultStepLimit
	// if <= 0); exhaustion surfaces as minic.TrapStepLimit.
	Steps int64
	// Budget is the wall-clock watchdog per execution (0 = none);
	// expiry surfaces as minic.TrapBudget. Unlike the step limit the
	// watchdog is not deterministic in the inputs, so scans that must be
	// byte-reproducible leave it off and rely on Steps.
	Budget time.Duration
	// Obs receives execution and validation counters; nil (the default)
	// is the no-op sink.
	Obs *obs.Metrics
}

// Steps builds an Exec with only an instruction budget — the common case
// in tests and deterministic scans.
func Steps(limit int64) Exec { return Exec{Steps: limit} }

// EnvProfile is one environment's execution outcome: the Table II feature
// vector of the trace — complete, or truncated at the fault — plus the trap
// that ended it, if any.
type EnvProfile struct {
	Vec  Profile
	Trap *minic.TrapError // nil when the execution ran to completion
}

// Complete reports whether the environment executed cleanly.
func (e EnvProfile) Complete() bool { return e.Trap == nil }

// Vectors flattens env profiles to plain feature vectors, truncated traces
// included, preserving environment order.
func Vectors(eps []EnvProfile) []Profile {
	out := make([]Profile, len(eps))
	for i, ep := range eps {
		out[i] = ep.Vec
	}
	return out
}

// CompleteVectors flattens env profiles that all ran to completion. It
// fails with the first trap otherwise — the contract for reference
// executions, which must run clean under their own environments.
func CompleteVectors(eps []EnvProfile) ([]Profile, error) {
	for i, ep := range eps {
		if ep.Trap != nil {
			return nil, fmt.Errorf("environment %d: %w", i, ep.Trap)
		}
	}
	return Vectors(eps), nil
}

// Completion counts the environments that ran to completion.
func Completion(eps []EnvProfile) int {
	n := 0
	for _, ep := range eps {
		if ep.Complete() {
			n++
		}
	}
	return n
}

// ProfileFunc executes fn under every environment, returning one profile
// per environment. A trapping environment yields a truncated profile tagged
// with its trap instead of aborting the whole candidate. The returned error
// is non-nil only when the context ended the run (cancellation or an outer
// deadline); the profiles gathered so far accompany it.
func ProfileFunc(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, envs []*minic.Env, ex Exec) ([]EnvProfile, error) {
	if ex.Steps <= 0 {
		ex.Steps = DefaultStepLimit
	}
	out := make([]EnvProfile, 0, len(envs))
	for _, env := range envs {
		if ctx != nil && ctx.Err() != nil {
			return out, ctx.Err()
		}
		res, err := executeOne(ctx, dis, fn, env, ex)
		if err != nil {
			if tr, ok := minic.IsTrap(err); ok {
				ex.Obs.Add(obs.CtrEnvsExecuted, 1)
				ex.Obs.Add(obs.CtrEnvsTrapped, 1)
				ep := EnvProfile{Trap: tr}
				if res != nil && res.Trace != nil {
					ep.Vec = Profile(res.Trace.Vector())
				}
				out = append(out, ep)
				continue
			}
			return out, err // cancellation from an enclosing context
		}
		ex.Obs.Add(obs.CtrEnvsExecuted, 1)
		out = append(out, EnvProfile{Vec: Profile(res.Trace.Vector())})
	}
	return out, nil
}

// executeOne runs a single emulator execution under the Exec bounds,
// deriving the per-execution watchdog deadline from the budget.
func executeOne(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, env *minic.Env, ex Exec) (*emu.Result, error) {
	if ex.Budget <= 0 {
		return emu.ExecuteObserved(ctx, dis, fn, env, ex.Steps, ex.Obs)
	}
	if ctx == nil {
		//patchecko:allow ctxflow nil-ctx API tolerance: Background is the documented fallback root
		ctx = context.Background()
	}
	ectx, cancel := context.WithTimeout(ctx, ex.Budget)
	defer cancel()
	return emu.ExecuteObserved(ectx, dis, fn, env, ex.Steps, ex.Obs)
}

// SimilarityEnv is the fault-tolerant form of equation (2): each
// environment's (scaled) distance is weighted by its completion. A
// completed environment weighs 1; a trapped one weighs the fraction of the
// reference trace it covered before faulting (by instruction count), so a
// candidate that died immediately contributes almost nothing while one that
// trapped on its last loop iteration still carries most of its signal. It
// also returns how many environments completed — the primary ranking key.
func SimilarityEnv(ref []Profile, cand []EnvProfile) (sim float64, completed int) {
	k := len(ref)
	if len(cand) < k {
		k = len(cand)
	}
	if k == 0 {
		return math.Inf(1), 0
	}
	var sum, wsum float64
	for i := 0; i < k; i++ {
		d := MinkowskiScaled(ref[i], cand[i].Vec, MinkowskiP)
		w := 1.0
		if cand[i].Complete() {
			completed++
		} else {
			w = completionFrac(ref[i], cand[i].Vec)
		}
		sum += w * d
		wsum += w
	}
	if wsum == 0 {
		return math.Inf(1), completed
	}
	return sum / wsum, completed
}

// completionFrac estimates how much of the reference execution a truncated
// trace covered, by instruction count, clamped to [0, 1].
func completionFrac(ref, cand Profile) float64 {
	refInstr := ref[idxInstrs]
	if refInstr <= 0 {
		return 0
	}
	f := cand[idxInstrs] / refInstr
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Validate executes every candidate under every environment. A candidate
// survives when at least one environment runs to completion; its profiles
// keep the truncated traces of any trapping environments. Candidates with
// no completed environment are excluded, and — unlike the paper's silent
// discard — the exclusion reason is returned per candidate index. This is
// the fault-tolerant form of the paper's "candidate functions execution
// validation" step.
func Validate(dis *disasm.Disassembly, cands []*disasm.Function, envs []*minic.Env, ex Exec) ([]int, map[int][]EnvProfile, map[int]error) {
	return ValidateParallel(nil, dis, cands, envs, ex, 1)
}

// ValidateParallel is Validate with a bounded worker pool — the paper's
// stated future work ("parallelizing the candidate function execution in
// each environment to further reduce the dynamic analysis processing
// time"). Results are identical to Validate: candidates are independent
// and the emulator is deterministic, so only wall-clock changes. A panic
// while profiling a candidate is recovered and recorded as that candidate's
// exclusion reason rather than crashing the pool. The context cancels
// between candidate executions; on cancellation the partial result set is
// returned and the caller is expected to check ctx.Err and discard it.
func ValidateParallel(ctx context.Context, dis *disasm.Disassembly, cands []*disasm.Function, envs []*minic.Env, ex Exec, workers int) ([]int, map[int][]EnvProfile, map[int]error) {
	if ctx == nil {
		//patchecko:allow ctxflow nil-ctx API tolerance: Background is the documented fallback root
		ctx = context.Background()
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	results := make([]ProfileOutcome, len(cands))
	if workers <= 1 || len(cands) <= 1 {
		for i, fn := range cands {
			if ctx.Err() != nil {
				break
			}
			results[i] = ProfileCandidate(ctx, dis, fn, envs, ex)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(cands) || ctx.Err() != nil {
						return
					}
					results[i] = ProfileCandidate(ctx, dis, cands[i], envs, ex)
				}
			}()
		}
		wg.Wait()
	}
	return ClassifyOutcomes(results, ex.Obs)
}

// ClassifyOutcomes reduces per-candidate outcomes into the validation
// result exactly as Validate does: errors and fully-trapping candidates are
// excluded with a reason, the rest survive with their profiles. Counters
// are recorded per outcome, so a caller that shares profiling work across
// duplicate candidates (the engine's dedup path) still reports the same
// validation totals as an unshared run.
func ClassifyOutcomes(results []ProfileOutcome, ob *obs.Metrics) ([]int, map[int][]EnvProfile, map[int]error) {
	var survivors []int
	profiles := make(map[int][]EnvProfile)
	excluded := make(map[int]error)
	for i, r := range results {
		switch {
		case !r.Ran:
			// Skipped by cancellation; the caller discards the set.
		case r.Err != nil:
			excluded[i] = r.Err
			ob.Add(obs.CtrCandidatesExcluded, 1)
			if r.Panicked {
				ob.Add(obs.CtrExcludedPanic, 1)
			} else {
				ob.Add(obs.CtrExcludedError, 1)
			}
		case Completion(r.Profiles) == 0:
			excluded[i] = exclusionReason(r.Profiles)
			ob.Add(obs.CtrCandidatesExcluded, 1)
			ob.Add(obs.CtrExcludedNoEnv, 1)
		default:
			survivors = append(survivors, i)
			profiles[i] = r.Profiles
			ob.Add(obs.CtrCandidatesValidated, 1)
		}
	}
	return survivors, profiles, excluded
}

// ProfileOutcome is one candidate's profiling outcome. Ran is false only
// when the context ended the run before (or while) the candidate executed;
// such outcomes carry no information and must not be cached or classified
// as exclusions.
type ProfileOutcome struct {
	Profiles []EnvProfile
	Err      error
	Ran      bool
	Panicked bool
}

// ProfileCandidate profiles one candidate, converting panics and
// cancellation into a recorded outcome so one hostile candidate cannot
// take down the pool.
func ProfileCandidate(ctx context.Context, dis *disasm.Disassembly, fn *disasm.Function, envs []*minic.Env, ex Exec) (r ProfileOutcome) {
	defer func() {
		if rec := recover(); rec != nil {
			r = ProfileOutcome{Err: fmt.Errorf("dynamic: panic while profiling candidate: %v", rec), Ran: true, Panicked: true}
		}
	}()
	eps, err := ProfileFunc(ctx, dis, fn, envs, ex)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return ProfileOutcome{} // context ended the run mid-candidate
		}
		return ProfileOutcome{Err: err, Ran: true} // emulator-level failure: exclude with reason
	}
	return ProfileOutcome{Profiles: eps, Ran: true}
}

// exclusionReason summarizes why a fully-trapping candidate was excluded:
// every environment faulted; the first environment's trap leads the message
// deterministically.
func exclusionReason(eps []EnvProfile) error {
	for i, ep := range eps {
		if ep.Trap != nil {
			return fmt.Errorf("no environment completed (%d total): env %d: %w", len(eps), i, ep.Trap)
		}
	}
	return fmt.Errorf("no environments to execute")
}

// Ranked is one candidate with its similarity distance to the reference.
type Ranked struct {
	Index int
	Sim   float64 // completion-weighted Minkowski distance; smaller = closer
	// Completed and Envs report the candidate's validation coverage:
	// environments that ran to completion out of those executed.
	Completed int
	Envs      int
}

// Rank orders candidates for the (function, similarity distance) ranking of
// the paper's Tables IV/V. Completion dominates: candidates that completed
// more environments always rank above candidates that completed fewer, so
// among fully-validated candidates the order is exactly the paper's
// ascending-distance rule, and partially-profiled candidates follow without
// ever displacing them.
func Rank(ref []Profile, cands map[int][]EnvProfile) []Ranked {
	out := make([]Ranked, 0, len(cands))
	for idx, eps := range cands {
		sim, _ := SimilarityEnv(ref, eps)
		// Completion is counted over the candidate's own environments, not
		// the (possibly shorter) comparison window the distance uses.
		//patchecko:allow determinism sortRanked below imposes a total order (ties by index)
		out = append(out, Ranked{Index: idx, Sim: sim, Completed: Completion(eps), Envs: len(eps)})
	}
	sortRanked(out)
	return out
}

func sortRanked(rs []Ranked) {
	// Insertion sort: candidate lists are short after validation, and a
	// deterministic stable order (ties by index) matters for the tables.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && less(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func less(a, b Ranked) bool {
	if a.Completed != b.Completed {
		return a.Completed > b.Completed
	}
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.Index < b.Index
}
