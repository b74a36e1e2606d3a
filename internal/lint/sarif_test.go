package lint

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestWriteSARIF round-trips the log through encoding/json and checks the
// invariants the uploader depends on: schema/version, one run, every
// analyzer present as a rule, every result's ruleIndex resolving to its
// ruleId, %SRCROOT%-anchored slash paths, and startLine >= 1.
func TestWriteSARIF(t *testing.T) {
	findings := []Finding{
		{Analyzer: "indexguard", File: "internal/kernels/x.go", Line: 12, Col: 3, Message: "boom"},
		{Analyzer: "unusedignore", File: "internal/ml/y.go", Line: 0, Col: 0, Message: "stale"},
	}
	var b strings.Builder
	if err := WriteSARIF(&b, All(), findings, map[string]any{"wallClockSeconds": 1.5, "budgetSeconds": 90.0}); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
						Properties struct {
							Category string `json:"category"`
						} `json:"properties"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Properties map[string]any `json:"properties"`
			Results    []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(b.String()), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Fatalf("version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "wise-lint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if run.Properties["wallClockSeconds"] != 1.5 || run.Properties["budgetSeconds"] != 90.0 {
		t.Errorf("run properties = %v, want wallClockSeconds/budgetSeconds", run.Properties)
	}
	ruleIDs := make(map[string]int)
	categories := make(map[string]string)
	for i, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = i
		categories[r.ID] = r.Properties.Category
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no description", r.ID)
		}
	}
	for _, a := range All() {
		if _, ok := ruleIDs[a.Name]; !ok {
			t.Errorf("analyzer %s missing from rules", a.Name)
		}
		if categories[a.Name] != a.Category {
			t.Errorf("rule %s category = %q, want %q", a.Name, categories[a.Name], a.Category)
		}
	}
	if len(run.Results) != len(findings) {
		t.Fatalf("want %d results, got %d", len(findings), len(run.Results))
	}
	for _, r := range run.Results {
		idx, ok := ruleIDs[r.RuleID]
		if !ok {
			t.Errorf("result ruleId %s not in rules", r.RuleID)
		} else if idx != r.RuleIndex {
			t.Errorf("result %s ruleIndex = %d, want %d", r.RuleID, r.RuleIndex, idx)
		}
		if r.Level != "warning" || r.Message.Text == "" {
			t.Errorf("result %s level/message = %q/%q", r.RuleID, r.Level, r.Message.Text)
		}
		for _, loc := range r.Locations {
			pl := loc.PhysicalLocation
			if pl.ArtifactLocation.URIBaseID != "%SRCROOT%" {
				t.Errorf("uriBaseId = %q", pl.ArtifactLocation.URIBaseID)
			}
			if strings.Contains(pl.ArtifactLocation.URI, "\\") {
				t.Errorf("uri %q not slash-separated", pl.ArtifactLocation.URI)
			}
			if pl.Region.StartLine < 1 {
				t.Errorf("startLine %d < 1", pl.Region.StartLine)
			}
		}
	}
}

// TestWriteSARIFEmpty checks the zero-finding log still carries the rule
// catalogue and an empty (not null) results array.
func TestWriteSARIFEmpty(t *testing.T) {
	var b strings.Builder
	if err := WriteSARIF(&b, All(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), `"results": null`) {
		t.Fatal("results must encode as [], not null")
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(b.String()), &raw); err != nil {
		t.Fatal(err)
	}
}
