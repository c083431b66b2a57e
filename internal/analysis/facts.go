package analysis

import (
	"sort"
	"strconv"

	"repro/internal/minipy"
)

// CertVersion identifies the certificate schema. Bump on any change to the
// JSON shape or to the meaning of a claim — consumers refuse versions they
// do not know.
const CertVersion = 2

// Certificate is the proof-carrying analysis artifact for one module: the
// determinism audit (PR 3), per-function interprocedural facts, and the
// static worst-case step bound. It rides `-json` under "analysis" →
// "certificate" and `pylint -facts`, and every claim in it is enforced by
// the VM-level soundness checker in soundness.go.
type Certificate struct {
	Version     int         `json:"version"`
	Determinism Determinism `json:"determinism"`
	Functions   []FuncFacts `json:"functions"`
	StepBound   StepBound   `json:"step_bound"`
}

// Determinism is the PR 3 determinism audit: whether every global the
// module touches resolves to a deterministic builtin or a module-defined
// name. (This type was previously named Certificate; the certificate now
// carries strictly more than determinism.)
type Determinism struct {
	Certified         bool     `json:"certified"`
	Builtins          []string `json:"builtins,omitempty"`
	UnresolvedGlobals []string `json:"unresolved_globals,omitempty"`
	UsesIO            bool     `json:"uses_io"`
}

// FuncFacts is everything the analysis proved about one function.
type FuncFacts struct {
	Name      string        `json:"name"`
	Effects   EffectFacts   `json:"effects"`
	Escape    EscapeFacts   `json:"escape"`
	Intervals IntervalFacts `json:"intervals"`
	// Registers summarizes the register-tier lowering (schema v2).
	Registers RegisterFacts `json:"registers"`
	// Calls lists resolved direct callees (sorted, deduplicated);
	// "?" marks at least one unresolved call site.
	Calls     []string `json:"calls,omitempty"`
	Recursive bool     `json:"recursive"`
	// StepBound is the worst-case step bound for one call of this
	// function ("unbounded" when no finite bound was proven).
	StepBound string `json:"step_bound"`
}

// EffectFacts is the effect/purity summary. All bits are transitive over
// resolved callees; Complete reports whether the transitive call graph
// under this function was fully resolved (false means every "may" bit is
// conservatively true).
type EffectFacts struct {
	Complete      bool     `json:"complete"`
	Pure          bool     `json:"pure"`
	ReadsGlobals  []string `json:"reads_globals,omitempty"`
	WritesGlobals []string `json:"writes_globals,omitempty"`
	Builtins      []string `json:"builtins,omitempty"`
	UsesIO        bool     `json:"uses_io"`
	MutatesHeap   bool     `json:"mutates_heap"`
	MayMutateArgs bool     `json:"may_mutate_args"`
	MayRaise      bool     `json:"may_raise"`
	MayDiverge    bool     `json:"may_diverge"`
}

// EscapeFacts is the escape summary for one function's activation.
type EscapeFacts struct {
	// FrameEscapes: a closure over this frame's cells may outlive the
	// activation (false proves the frame is reclaimable at return).
	FrameEscapes bool `json:"frame_escapes"`
	// ReturnsFresh: the function may return an object allocated during
	// its own activation (false licenses caller-side reuse).
	ReturnsFresh bool `json:"returns_fresh"`
}

// IntervalFacts is the interval summary for one function.
type IntervalFacts struct {
	// Params holds one interval string per parameter, joined over every
	// resolved call site module-wide ("any" when a caller is unknown).
	Params []string `json:"params,omitempty"`
	Return string   `json:"return"`
	// DivSites counts integer division/modulo sites; DivSitesSafe counts
	// those whose divisor interval provably excludes zero.
	DivSites     int `json:"div_sites"`
	DivSitesSafe int `json:"div_sites_safe"`
	// IntClaims counts program points with a checked interval claim.
	IntClaims int `json:"int_claims"`
}

// StepBound is the module-level static step bound consumed by the harness
// budget machinery: one invocation executes the module body once, then
// calls run() Iterations times.
type StepBound struct {
	Bounded bool `json:"bounded"`
	// ModuleSteps bounds one execution of the module body; RunSteps
	// bounds one call of run(). Zero when not Bounded.
	ModuleSteps int64 `json:"module_steps,omitempty"`
	RunSteps    int64 `json:"run_steps,omitempty"`
	// Reason explains an unbounded verdict ("recursive: fib",
	// "unbounded loop: nbody pc 12", "unresolved call", ...).
	Reason string `json:"reason,omitempty"`
}

// ModuleFacts is the internal, pointer-rich view behind a Certificate. It
// keys facts by *minipy.Code so the optimizer, the harness, and the VM
// soundness checker can look up claims for the exact code objects they
// execute.
type ModuleFacts struct {
	Module *minipy.Code
	// Runs holds the converged abstract run per code object (module body
	// included, keyed by itself).
	Runs map[*minipy.Code]*absRun
	// Bindings maps stable global function names to their code objects.
	Bindings map[string]*minipy.Code
	// Effects holds the transitive effect summary per code object.
	Effects map[*minipy.Code]*EffectFacts
	// Callee maps call sites (code, pc of OpCall) to the resolved callee
	// code object — the expected-callee table the escape checker uses.
	Callee map[*minipy.Code]map[int]*minipy.Code
	// Recursive marks functions on a call-graph cycle.
	Recursive map[*minipy.Code]bool
	// FuncBounds holds per-call worst-case step bounds (absent =
	// unbounded).
	FuncBounds map[*minipy.Code]int64
	// Bound is the assembled module-level step bound.
	Bound StepBound
	// Determinism carries the audit result (shared with the Certificate).
	Determinism Determinism

	// lint holds pass A's run per code object: its recording pass carries
	// the type-error and unresolved-global diagnostics and the typed
	// coverage that Analyze reports.
	lint map[*minipy.Code]*absRun
	// graphs caches the per-code CFGs the analysis was computed over.
	graphs map[*minipy.Code]*Graph
}

// buildCertificate assembles the stable public artifact from the internal
// facts. Everything is sorted so the JSON is byte-stable.
func buildCertificate(m *ModuleFacts) *Certificate {
	cert := &Certificate{
		Version:     CertVersion,
		Determinism: m.Determinism,
		StepBound:   m.Bound,
	}
	names := make([]string, 0, len(m.Bindings))
	for name := range m.Bindings {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		code := m.Bindings[name]
		run := m.Runs[code]
		eff := m.Effects[code]
		if run == nil || eff == nil {
			continue
		}
		ff := FuncFacts{
			Name:      name,
			Effects:   *eff,
			Recursive: m.Recursive[code],
			Escape: EscapeFacts{
				FrameEscapes: run.frameEscapes,
				ReturnsFresh: run.returnMayFresh,
			},
			Intervals: IntervalFacts{
				Return:       run.returnIv.String(),
				DivSites:     run.divSites,
				DivSitesSafe: run.divSafe,
				IntClaims:    len(run.claims),
			},
			Registers: registerPlan(code, run.claims),
			StepBound: "unbounded",
		}
		if b, ok := m.FuncBounds[code]; ok {
			ff.StepBound = fmtSteps(b)
		}
		if code.NumParams > 0 {
			ff.Intervals.Params = make([]string, code.NumParams)
			for i := range ff.Intervals.Params {
				ff.Intervals.Params[i] = "any"
			}
			if run.params != nil {
				for i := 0; i < code.NumParams && i < len(run.params); i++ {
					ff.Intervals.Params[i] = run.params[i].String()
				}
			}
		}
		callees := map[string]bool{}
		for _, cf := range run.calls {
			callees[cf.name] = true
		}
		if run.callsUnknown {
			callees["?"] = true
		}
		for c := range callees {
			ff.Calls = append(ff.Calls, c)
		}
		sort.Strings(ff.Calls)
		cert.Functions = append(cert.Functions, ff)
	}
	return cert
}

func fmtSteps(v int64) string {
	if v < 0 {
		return "unbounded"
	}
	return strconv.FormatInt(v, 10)
}
