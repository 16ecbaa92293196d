package main

import (
	"reflect"
	"testing"
)

func TestParseRatios(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64 // nil: rejected
	}{
		{"0.9,0.5,0.1", []float64{0.9, 0.5, 0.1}},
		{" 0, 1 ", []float64{0, 1}},
		{"NaN", nil},
		{"0.5,nan", nil},
		{"-0.1", nil},
		{"1.5", nil},
		{"+Inf", nil},
		{"half", nil},
		{"0.5,", nil},
	} {
		got, err := parseRatios(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseRatios(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseRatios(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
