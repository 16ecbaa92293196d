package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		batch int
		ok    bool
	}{
		{0.25, 16, true},
		{1, 1, true},
		{0, 16, false},
		{-1, 16, false},
		{math.NaN(), 16, false},
		{math.Inf(1), 16, false},
		{0.25, 0, false},
		{0.25, -1, false},
	} {
		if err := checkFlags(tc.scale, tc.batch); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, %d) = %v, want ok=%v", tc.scale, tc.batch, err, tc.ok)
		}
	}
}
