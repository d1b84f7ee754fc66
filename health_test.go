// Health introspection conformance: every one of the eight Checkpointer
// structures must also be an obs.Inspector whose Health() report is
// non-empty — a named structure with at least one metric — both empty and
// after ingesting a churning stream, and the report must serialize to
// deterministic JSON (the /debug/health endpoint's contract).
package graphsketch_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"graphsketch/internal/obs"
	"graphsketch/internal/plan"
	"graphsketch/internal/stream"
)

// checkReport asserts the structural invariants of one health report, then
// recurses into its nested sub-reports.
func checkReport(t *testing.T, r obs.Report) {
	t.Helper()
	if r.Structure == "" {
		t.Error("Health() report has an empty Structure name")
	}
	if len(r.Metrics) == 0 {
		t.Errorf("Health() report for %q has no metrics", r.Structure)
	}
	for k, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %q is %v (must be finite for JSON)", r.Structure, k, v)
		}
	}
	if risk, ok := r.Metrics["decode_failure_risk"]; ok && (risk < 0 || risk > 1) {
		t.Errorf("%s: decode_failure_risk = %v outside [0, 1]", r.Structure, risk)
	}
	for _, sub := range r.Subs {
		checkReport(t, sub)
	}
}

func TestAllStructuresReportHealth(t *testing.T) {
	const n = 24
	st := checkpointStream(n)
	for _, tc := range checkpointCases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(t, n, plan.Balanced, ckptSeed)
			insp, ok := s.(obs.Inspector)
			if !ok {
				t.Fatalf("%T does not implement obs.Inspector", s)
			}
			// An empty sketch must already report coherently (a scraper can
			// hit /debug/health before the first update arrives).
			checkReport(t, insp.Health())

			if err := stream.Apply(st, s); err != nil {
				t.Fatal(err)
			}
			rep := insp.Health()
			checkReport(t, rep)

			// The endpoint serves reports as JSON; map keys sort, so two
			// encodes of the same report are byte-identical.
			b1, err := json.Marshal(rep)
			if err != nil {
				t.Fatalf("marshal health report: %v", err)
			}
			b2, err := json.Marshal(insp.Health())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("health report encoding is not deterministic:\n%s\n%s", b1, b2)
			}
		})
	}
}

// TestHealthReportsRegistry drives the registration path the CLIs use:
// registered inspectors appear in HealthReports() under their registered
// name, and unregistering removes them.
func TestHealthReportsRegistry(t *testing.T) {
	const n = 16
	st := checkpointStream(n)
	for _, tc := range checkpointCases {
		s := tc.build(t, n, plan.Balanced, ckptSeed)
		if err := stream.Apply(st, s); err != nil {
			t.Fatal(err)
		}
		obs.RegisterInspector("conformance_"+tc.name, s.(obs.Inspector))
		defer obs.RegisterInspector("conformance_"+tc.name, nil)
	}
	reports := obs.HealthReports()
	for _, r := range reports {
		checkReport(t, r)
	}
	if len(reports) < len(checkpointCases) {
		t.Fatalf("HealthReports() returned %d reports, want >= %d", len(reports), len(checkpointCases))
	}
}
