package simjoin

import (
	"testing"
)

// TestJoinOptionsApplyInOrder pins the functional-options contract: options
// apply in order, so a later option overrides an earlier one.
func TestJoinOptionsApplyInOrder(t *testing.T) {
	o := applyJoinOptions([]JoinOption{
		WithWorkers(2),
		WithDenseMinTokens(7),
		WithBitmapPostingMin(9),
		WithWorkers(5),
	})
	want := options{Workers: 5, DenseMinTokens: 7, BitmapPostingMin: 9}
	if o != want {
		t.Fatalf("applied options = %+v, want %+v", o, want)
	}
}
