package main

import (
	"reflect"
	"testing"
)

// -sizes accepts positive integers only: a non-positive size would reach
// the workload generators and panic there.
func TestParseSizes(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{in: "64,256", want: []int{64, 256}},
		{in: "64,-8", wantErr: true},
		{in: "0", wantErr: true},
		{in: "x", wantErr: true},
		{in: ""},
	} {
		got, err := parseSizes(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseSizes(%q) error = %v, want error %v", tc.in, err, tc.wantErr)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSizes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
