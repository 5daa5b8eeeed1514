package main

import (
	"fmt"
	"slices"
	"sort"

	"mview"
)

// viewDef is one materialized view of a workload.
type viewDef struct {
	name string
	spec mview.ViewSpec
	opts []mview.ViewOption
}

func createViews(db *mview.DB, views []viewDef) error {
	for _, v := range views {
		if err := db.CreateView(v.name, v.spec, v.opts...); err != nil {
			return fmt.Errorf("create view %s: %w", v.name, err)
		}
	}
	return nil
}

// checkOracle is the full re-evaluation gate: every materialized view
// must equal DB.Query of its own spec, counters included.
func checkOracle(db *mview.DB, views []viewDef) error {
	for _, v := range views {
		got, err := db.View(v.name)
		if err != nil {
			return fmt.Errorf("oracle: view %s: %w", v.name, err)
		}
		want, err := db.Query(v.spec)
		if err != nil {
			return fmt.Errorf("oracle: query %s: %w", v.name, err)
		}
		if err := sameRows(got, want); err != nil {
			return fmt.Errorf("oracle: view %s differs from re-evaluation: %w", v.name, err)
		}
	}
	return nil
}

// contents is the full state of a database: base relations and views.
type contents struct {
	rels  map[string][][]int64
	views map[string][]mview.Row
}

func readContents(db *mview.DB) (contents, error) {
	c := contents{rels: map[string][][]int64{}, views: map[string][]mview.Row{}}
	for _, r := range db.Relations() {
		rows, err := db.Rows(r)
		if err != nil {
			return c, err
		}
		c.rels[r] = rows
	}
	for _, v := range db.Views() {
		rows, err := db.View(v)
		if err != nil {
			return c, err
		}
		c.views[v] = rows
	}
	return c, nil
}

// sameContents compares two database states; what names the pair.
func sameContents(what string, a, b contents) error {
	if len(a.rels) != len(b.rels) || len(a.views) != len(b.views) {
		return fmt.Errorf("%s: catalogs differ: %d/%d relations, %d/%d views", what, len(a.rels), len(b.rels), len(a.views), len(b.views))
	}
	for name, x := range a.rels {
		y := b.rels[name]
		if len(x) != len(y) {
			return fmt.Errorf("%s: relation %s has %d rows vs %d", what, name, len(x), len(y))
		}
		for i := range x {
			if !slices.Equal(x[i], y[i]) {
				return fmt.Errorf("%s: relation %s row %d: %v vs %v", what, name, i, x[i], y[i])
			}
		}
	}
	for name, x := range a.views {
		if err := sameRows(x, b.views[name]); err != nil {
			return fmt.Errorf("%s: view %s: %w", what, name, err)
		}
	}
	return nil
}

func sameRows(a, b []mview.Row) error {
	sortRows(a)
	sortRows(b)
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if !slices.Equal(a[i].Values, b[i].Values) || a[i].Count != b[i].Count {
			return fmt.Errorf("row %d: %v×%d vs %v×%d", i, a[i].Values, a[i].Count, b[i].Values, b[i].Count)
		}
	}
	return nil
}

func sortRows(rows []mview.Row) {
	sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i].Values, rows[j].Values) < 0 })
}
