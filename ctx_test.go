package mview

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestExecContextCancellation pins the public context surface: a dead
// context commits nothing on either commit path, and the plain
// variants still work unchanged.
func TestExecContextCancellation(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithGroupCommit(4, time.Millisecond)}} {
		d := Open(opts...)
		if err := d.CreateRelation("R", "A", "B"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := d.ExecContext(ctx, Insert("R", 1, 2)); !errors.Is(err, context.Canceled) {
			t.Errorf("opts=%d: ExecContext = %v, want context.Canceled", len(opts), err)
		}
		if rows, _ := d.Rows("R"); len(rows) != 0 {
			t.Errorf("opts=%d: cancelled transaction committed: %v", len(opts), rows)
		}
		if _, err := d.QueryContext(ctx, ViewSpec{From: []string{"R"}}); !errors.Is(err, context.Canceled) {
			t.Errorf("opts=%d: QueryContext = %v, want context.Canceled", len(opts), err)
		}
		// Live context: both variants succeed.
		if _, err := d.ExecContext(context.Background(), Insert("R", 1, 2)); err != nil {
			t.Fatal(err)
		}
		rows, err := d.QueryContext(context.Background(), ViewSpec{From: []string{"R"}})
		if err != nil || len(rows) != 1 {
			t.Errorf("opts=%d: QueryContext = %v, %v; want one row", len(opts), rows, err)
		}
		d.Close()
	}
}
