package main

import "testing"

// TestCheckSizes: every size flag the chosen app reads must be positive, and
// flags it does not read are ignored. The rejected rows each used to panic in
// a generator, print a misleading error, or silently run an empty phase.
func TestCheckSizes(t *testing.T) {
	def := sizes{bodies: 16384, vertices: 16384, degree: 8, terms: 29, steps: 1, iters: 4}
	with := func(edit func(*sizes)) sizes { s := def; edit(&s); return s }
	for _, tc := range []struct {
		app  string
		sz   sizes
		want string // "" = accepted
	}{
		{"bh", with(func(s *sizes) { s.bodies = -1 }), "-bodies must be positive, got -1"},
		{"em3d", with(func(s *sizes) { s.bodies = -3 }), "-bodies must be positive, got -3"},
		{"fmm", with(func(s *sizes) { s.terms = -1 }), "-terms must be positive, got -1"},
		{"pagerank", with(func(s *sizes) { s.vertices = 0 }), "-vertices must be positive, got 0"},
		{"bh", with(func(s *sizes) { s.bodies = 0 }), "-bodies must be positive, got 0"},
		{"bh", with(func(s *sizes) { s.steps = 0 }), "-steps must be positive, got 0"},
		{"em3d", with(func(s *sizes) { s.iters = -1 }), "-iters must be positive, got -1"},
		{"bfs", with(func(s *sizes) { s.degree = -1 }), "-degree must be positive, got -1"},

		// One accepted row per app, each with a flag it does not read set to
		// a value that would be rejected if it did.
		{"bh", with(func(s *sizes) { s.vertices = 0 }), ""},
		{"fmm", with(func(s *sizes) { s.steps = 0 }), ""},
		{"em3d", with(func(s *sizes) { s.terms = -1 }), ""},
		{"bfs", with(func(s *sizes) { s.iters = -1 }), ""},
		{"pagerank", with(func(s *sizes) { s.bodies = -1 }), ""},
		{"cc", with(func(s *sizes) { s.bodies = 0 }), ""},
	} {
		err := checkSizes(tc.app, tc.sz)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("checkSizes(%s, %+v) = %q, want %q", tc.app, tc.sz, got, tc.want)
		}
	}
}
