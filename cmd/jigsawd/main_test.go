package main

import (
	"strings"
	"testing"

	jigsaw "repro"
	"repro/internal/experiments"
)

// TestCanonicalSchemeReadsTheRegistry pins -policy to the one scheme
// registry: every registered name is accepted in any case, canonicalizes to
// itself, and builds an allocator that answers to it.
func TestCanonicalSchemeReadsTheRegistry(t *testing.T) {
	tree, err := jigsaw.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range experiments.Registered {
		for _, spelled := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			got, err := canonicalScheme(spelled)
			if err != nil || got != name {
				t.Fatalf("canonicalScheme(%q) = %q, %v; want %q", spelled, got, err, name)
			}
		}
		a, err := jigsaw.NewAllocator(name, tree)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("NewAllocator(%q).Name() = %q", name, a.Name())
		}
	}
	if _, err := canonicalScheme("bogus"); err == nil {
		t.Fatal("an unknown policy must be refused")
	}
}
