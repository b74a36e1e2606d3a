package lint

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestSuppressionInventory diffs LINTING.md's "Analyzer inventory" table
// against the code in both directions: the table lists exactly the analyzers
// All() returns, and each row's suppression count equals the number of
// well-formed //lint:ignore directives naming that analyzer in the module's
// non-test files.
func TestSuppressionInventory(t *testing.T) {
	data, err := os.ReadFile("../../LINTING.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`^\| ([a-z]+) +\| [^|]+\| ([0-9]+) +\|`)
	documented := map[string]int{}
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "### Analyzer inventory"):
			inTable = true
		case strings.HasPrefix(line, "#"):
			inTable = false
		}
		m := row.FindStringSubmatch(line)
		if m == nil || !inTable {
			continue
		}
		if _, dup := documented[m[1]]; dup {
			t.Errorf("LINTING.md lists %s twice", m[1])
		}
		n, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		documented[m[1]] = n
	}
	if len(documented) == 0 {
		t.Fatal("no rows found under LINTING.md's \"### Analyzer inventory\"")
	}

	m := repoModule(t)
	counts := map[string]int{}
	var malformed []Finding // reported by TestModuleClean, not counted here
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, d := range parseIgnores(m.Fset, f, &malformed) {
				counts[d.analyzer]++
			}
		}
	}

	suite := map[string]bool{}
	for _, a := range All() {
		suite[a.Name] = true
		n, ok := documented[a.Name]
		if !ok {
			t.Errorf("analyzer %s is missing from LINTING.md's inventory", a.Name)
			continue
		}
		if n != counts[a.Name] {
			t.Errorf("LINTING.md lists %d %s suppression(s); the tree has %d", n, a.Name, counts[a.Name])
		}
	}
	for name := range documented {
		if !suite[name] {
			t.Errorf("LINTING.md lists %s, which All() does not return", name)
		}
	}
	for name, n := range counts {
		if !suite[name] && name != "*" {
			t.Errorf("%d //lint:ignore directive(s) name %q, which is not in the suite", n, name)
		}
	}
}
