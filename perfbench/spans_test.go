package main

import "testing"

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	list := []span{
		{ID: 1, Name: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "wait", Start: 2, End: 6},
		{ID: 3, Parent: 1, Name: "poll", Start: 5, End: 8},  // overlaps wait by 1
		{ID: 4, Parent: 1, Name: "late", Start: 9, End: 12}, // runs past the parent
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(list) {
		got[st.Name] = st
	}
	// Children cover [2,8] and [9,10] of the parent: 7 of its 10.
	if st := got["job"]; st.TotalMS != 10 || st.SelfMS != 3 {
		t.Errorf("job total %v self %v, want 10 and 3", st.TotalMS, st.SelfMS)
	}
	if st := got["wait"]; st.SelfMS != 4 {
		t.Errorf("wait self %v, want 4", st.SelfMS)
	}
}
