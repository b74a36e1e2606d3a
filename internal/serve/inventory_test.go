package serve

import (
	"bufio"
	"os"
	"regexp"
	"strings"
	"testing"

	"wise/internal/obs"
)

// TestInstrumentInventory diffs OBSERVABILITY.md's instrument inventory
// against the live registry, in both directions, for every serve.* and
// session.* counter, gauge and histogram. A documented instrument the code
// no longer registers fails, and so does a registered one the inventory
// does not list. The snapshot includes zero-valued instruments, so every
// name registered at package init is seen without driving traffic.
func TestInstrumentInventory(t *testing.T) {
	f, err := os.Open("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row := regexp.MustCompile("^\\| `((?:serve|session)\\.[a-z_]+)` \\|")
	documented := map[string]map[string]bool{"counter": {}, "gauge": {}, "histogram": {}}
	kind := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "### Counters"):
			kind = "counter"
		case strings.HasPrefix(line, "### Gauges"):
			kind = "gauge"
		case strings.HasPrefix(line, "### Histograms"):
			kind = "histogram"
		case strings.HasPrefix(line, "#"):
			kind = ""
		}
		if m := row.FindStringSubmatch(line); m != nil && kind != "" {
			documented[kind][m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	snap := obs.TakeSnapshot()
	live := map[string]map[string]bool{
		"counter":   servingNames(snap.Counters),
		"gauge":     servingNames(snap.Gauges),
		"histogram": servingNames(snap.Histograms),
	}
	for kind, reg := range live {
		doc := documented[kind]
		if len(reg) == 0 {
			t.Fatalf("no serve.*/session.* %ss registered", kind)
		}
		for name := range doc {
			if !reg[name] {
				t.Errorf("OBSERVABILITY.md lists %s %s, which the code does not register", kind, name)
			}
		}
		for name := range reg {
			if !doc[name] {
				t.Errorf("%s %s is registered but missing from OBSERVABILITY.md", kind, name)
			}
		}
	}
}

// servingNames is the set of serve.* and session.* names among a snapshot
// section's keys.
func servingNames[V any](section map[string]V) map[string]bool {
	names := map[string]bool{}
	for name := range section {
		if strings.HasPrefix(name, "serve.") || strings.HasPrefix(name, "session.") {
			names[name] = true
		}
	}
	return names
}
