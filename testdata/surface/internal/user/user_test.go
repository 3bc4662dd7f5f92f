package user

import (
	"testing"

	"example.com/surface/internal/kept"
)

func TestHelper(t *testing.T) {
	if Value() == kept.Helper() {
		t.Fatal("Used and Helper agree")
	}
}
