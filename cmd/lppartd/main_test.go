package main

import (
	"reflect"
	"testing"
)

func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		name, csv, self string
		want            []string
		wantErr         bool
	}{
		{name: "valid", csv: "http://n1:8095,http://n2:8095", self: "http://n1:8095",
			want: []string{"http://n1:8095", "http://n2:8095"}},
		{name: "whitespace", csv: " http://n1:8095 ,\thttp://n2:8095\n", self: "http://n2:8095",
			want: []string{"http://n1:8095", "http://n2:8095"}},
		{name: "empty entries", csv: ",http://n1:8095,,http://n2:8095,", self: "http://n1:8095",
			want: []string{"http://n1:8095", "http://n2:8095"}},
		{name: "standalone", csv: "", self: "http://n1:8095", want: nil},
		{name: "only commas", csv: " , ,", self: "", want: nil},
		{name: "self trailing slash", csv: "http://n1:8095,http://n2:8095", self: "http://n1:8095/", wantErr: true},
		{name: "peer trailing slash", csv: "http://n1:8095/,http://n2:8095", self: "http://n1:8095", wantErr: true},
		{name: "peers without self", csv: "http://n1:8095,http://n2:8095", self: "", wantErr: true},
		{name: "self elsewhere", csv: "http://n1:8095,http://n2:8095", self: "http://n3:8095", wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parsePeers(tc.csv, tc.self)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parsePeers(%q, %q) = %q, want an error", tc.csv, tc.self, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parsePeers(%q, %q): %v", tc.csv, tc.self, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("parsePeers(%q, %q) = %q, want %q", tc.csv, tc.self, got, tc.want)
			}
		})
	}
}
