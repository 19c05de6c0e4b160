package dpa

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsTablesMatchResults: EXPERIMENTS.md's paper tables (T1–F6,
// everything above the X1–X10 heading) are hand-copied from
// results_full.txt, and hand-copied numbers drift. Every numeric cell of
// those tables — thousands separators, spaces, emphasis and a trailing K, s
// or × removed — must occur as a number in the section of results_full.txt
// with the same experiment id.
func TestExperimentsTablesMatchResults(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	res, err := os.ReadFile("results_full.txt")
	if err != nil {
		t.Fatal(err)
	}

	// results_full.txt: "ID: title" lines open a section.
	number := regexp.MustCompile(`\d+(\.\d+)?`)
	resHeader := regexp.MustCompile(`^([TFX]\d+): `)
	have := map[string]map[string]bool{}
	id := ""
	for _, line := range strings.Split(string(res), "\n") {
		if m := resHeader.FindStringSubmatch(line); m != nil {
			id = m[1]
			have[id] = map[string]bool{}
			continue
		}
		if id != "" {
			for _, n := range number.FindAllString(line, -1) {
				have[id][n] = true
			}
		}
	}

	paper, _, found := strings.Cut(string(doc), "\n## X1–X10")
	if !found {
		t.Fatal("EXPERIMENTS.md has no \"## X1–X10\" heading to stop at")
	}
	docHeader := regexp.MustCompile(`^## ([TF]\d+) — `)
	cell := regexp.MustCompile(`^(\d+(?:\.\d+)?)[Ksx×]?$`)
	strip := strings.NewReplacer(",", "", " ", "", "*", "")
	id = ""
	checked := 0
	for _, line := range strings.Split(paper, "\n") {
		if strings.HasPrefix(line, "## ") {
			id = ""
			if m := docHeader.FindStringSubmatch(line); m != nil {
				id = m[1]
				if have[id] == nil {
					t.Errorf("EXPERIMENTS.md has a %s table, results_full.txt has no %s section", id, id)
					id = ""
				}
			}
			continue
		}
		if id == "" || !strings.HasPrefix(line, "|") {
			continue
		}
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			m := cell.FindStringSubmatch(strip.Replace(c))
			if m == nil {
				continue // a label, a dash, a separator
			}
			checked++
			if !have[id][m[1]] {
				t.Errorf("%s: cell %q of row %q is not in results_full.txt's %s section", id, strings.TrimSpace(c), line, id)
			}
		}
	}
	if checked < 200 {
		t.Errorf("only %d numeric cells found; the table parser has lost the tables", checked)
	}
}
