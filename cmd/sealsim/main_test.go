package main

import (
	"reflect"
	"testing"
)

func TestParseExps(t *testing.T) {
	allButGrid := map[string]bool{}
	for _, e := range experiments {
		if e != "grid" {
			allButGrid[e] = true
		}
	}
	withGrid := map[string]bool{"grid": true}
	for e := range allButGrid {
		withGrid[e] = true
	}
	for _, tc := range []struct {
		in   string
		want map[string]bool // nil: rejected
	}{
		{"all", allButGrid},
		{"all,grid", withGrid},
		{"grid", map[string]bool{"grid": true}},
		{"fig1", map[string]bool{"fig1": true}},
		{"fig5, fig6", map[string]bool{"fig5": true, "fig6": true}},
		{"fig7", map[string]bool{"nets": true}},
		{"fig8,nets", map[string]bool{"nets": true}},
		{"ratios,ratios", map[string]bool{"ratios": true}},
		{"bogus", nil},
		{"ratio", nil}, // typo of ratios: a substring match used to run nothing
		{"fig1,bogus", nil},
		{"Fig1", nil},
		{"fig1,", nil},
		{"", nil},
	} {
		got, err := parseExps(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseExps(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseExps(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseExps(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
