// Package dataset provides the in-memory data model of the testbed: an
// immutable numeric dataset with named features, cheap subspace projection
// (views), CSV persistence, and the ground-truth model associating each
// outlier with its relevant explaining subspaces.
package dataset

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"anex/internal/subspace"
)

// Dataset is an immutable collection of n points over d numeric features.
// Data is stored column-major, which makes subspace projection — the hot
// operation of every explanation algorithm — a simple gather of k columns.
type Dataset struct {
	name      string
	id        uint64      // process-unique identity (see ID)
	sourceKey string      // name#id, built once (see SourceKey)
	features  []string    // feature names, len d
	cols      [][]float64 // cols[f][i] = value of feature f at point i
	n         int
	gathers   atomic.Int64 // view materialisations performed (see Gathers)
}

// nextDatasetID hands out process-unique dataset identities.
var nextDatasetID atomic.Uint64

// New builds a dataset from column-major data. The columns are not copied;
// the caller must not mutate them afterwards. Feature names may be nil, in
// which case F0…F(d−1) are generated.
func New(name string, cols [][]float64, features []string) (*Dataset, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("dataset %q: no columns", name)
	}
	n := len(cols[0])
	for f, c := range cols {
		if len(c) != n {
			return nil, fmt.Errorf("dataset %q: column %d has %d values, want %d", name, f, len(c), n)
		}
	}
	if features == nil {
		features = make([]string, len(cols))
		for f := range features {
			features[f] = fmt.Sprintf("F%d", f)
		}
	}
	if len(features) != len(cols) {
		return nil, fmt.Errorf("dataset %q: %d feature names for %d columns", name, len(features), len(cols))
	}
	id := nextDatasetID.Add(1)
	return &Dataset{
		name: name, id: id, sourceKey: name + "#" + strconv.FormatUint(id, 10),
		features: features, cols: cols, n: n,
	}, nil
}

// FromRows builds a dataset from row-major data, copying it into
// column-major storage.
func FromRows(name string, rows [][]float64, features []string) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset %q: no rows", name)
	}
	d := len(rows[0])
	cols := make([][]float64, d)
	for f := range cols {
		cols[f] = make([]float64, len(rows))
	}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("dataset %q: row %d has %d values, want %d", name, i, len(r), d)
		}
		for f, v := range r {
			cols[f][i] = v
		}
	}
	return New(name, cols, features)
}

// Name returns the dataset's name.
func (ds *Dataset) Name() string { return ds.name }

// ID returns the dataset's process-unique identity. Two datasets built in
// the same process never share an ID even when their names collide, which
// is what makes caches that outlive one dataset (a neighbourhood plane, a
// score memo) safe to key by dataset rather than by name.
func (ds *Dataset) ID() uint64 { return ds.id }

// SourceKey identifies the dataset in every cache keyed by dataset (a
// neighbourhood plane and its delta engine, a score memo): the name plus
// the process-unique ID, the same key every View of this dataset reports.
// Holders of short-lived datasets (the stream monitor's windows) use it to
// release cache entries when a dataset dies.
func (ds *Dataset) SourceKey() string { return ds.sourceKey }

// N returns the number of points.
func (ds *Dataset) N() int { return ds.n }

// D returns the number of features.
func (ds *Dataset) D() int { return len(ds.cols) }

// FeatureName returns the name of feature f.
func (ds *Dataset) FeatureName(f int) string { return ds.features[f] }

// FeatureNames returns a copy of all feature names.
func (ds *Dataset) FeatureNames() []string {
	out := make([]string, len(ds.features))
	copy(out, ds.features)
	return out
}

// Value returns the value of feature f at point i.
func (ds *Dataset) Value(i, f int) float64 { return ds.cols[f][i] }

// Column returns the values of feature f for all points. The returned slice
// is shared with the dataset and must not be mutated.
func (ds *Dataset) Column(f int) []float64 { return ds.cols[f] }

// Row copies point i's full-space values into dst (which must have length
// ≥ d) and returns dst[:d].
func (ds *Dataset) Row(i int, dst []float64) []float64 {
	for f := range ds.cols {
		dst[f] = ds.cols[f][i]
	}
	return dst[:len(ds.cols)]
}

// View returns a LAZY projection of the dataset onto the given subspace.
// Construction is O(k): it clones the subspace and defers the O(n·k)
// row-major gather until Points or Point is first touched. This is what
// makes the cache-first scoring path allocation-free — a memoised detector
// can answer from the view's key (source key + subspace) without the
// projection ever being materialised. Views are safe for concurrent use;
// the first accessor performs the gather exactly once.
func (ds *Dataset) View(s subspace.Subspace) *View {
	return &View{sub: s.Clone(), dataset: ds}
}

// FullView returns the view over all features.
func (ds *Dataset) FullView() *View {
	return ds.View(subspace.Full(ds.D()))
}

// Gathers returns the number of view materialisations performed against
// this dataset since construction — the observability hook that lets tests
// assert the cache-hit path triggers zero O(n·k) projection work.
func (ds *Dataset) Gathers() int64 { return ds.gathers.Load() }

// View is the projection of a dataset onto one subspace. The row-major
// point data is materialised lazily: the subspace identity (Subspace, Dim,
// N) is available immediately and for free, while the first call to Points
// or Point performs the one-time O(n·k) gather.
type View struct {
	sub     subspace.Subspace
	dataset *Dataset

	once sync.Once
	rows [][]float64
}

// Subspace returns the subspace this view projects onto.
func (v *View) Subspace() subspace.Subspace { return v.sub }

// N returns the number of points in the view.
func (v *View) N() int { return v.dataset.n }

// Dim returns the dimensionality of the view.
func (v *View) Dim() int { return len(v.sub) }

// materialise performs the deferred row gather. Rows share one flat backing
// array, so the whole view costs two allocations regardless of n.
func (v *View) materialise() {
	ds := v.dataset
	k := len(v.sub)
	flat := make([]float64, ds.n*k)
	rows := make([][]float64, ds.n)
	for j, f := range v.sub {
		col := ds.cols[f]
		for i := 0; i < ds.n; i++ {
			flat[i*k+j] = col[i]
		}
	}
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	v.rows = rows
	ds.gathers.Add(1)
}

// Point returns the projected coordinates of point i, materialising the
// view on first access. The returned slice is shared with the view and must
// not be mutated.
func (v *View) Point(i int) []float64 {
	v.once.Do(v.materialise)
	return v.rows[i]
}

// Points returns all projected points, materialising the view on first
// access. Shared storage; do not mutate.
func (v *View) Points() [][]float64 {
	v.once.Do(v.materialise)
	return v.rows
}

// Dataset returns the dataset this view was projected from.
func (v *View) Dataset() *Dataset { return v.dataset }

// The methods below give delta-distance scoring column-contiguous access to
// the view without materialising rows (they satisfy neighbors.ColumnSource).
// Because the dataset is column-major, a view column is the underlying
// dataset column itself — zero-copy, zero-gather.

// Column returns the j-th column of the view, i.e. the values of the view's
// j-th subspace feature (ascending feature order) for all points. Shared
// storage; do not mutate.
func (v *View) Column(j int) []float64 { return v.dataset.cols[v.sub[j]] }

// Feature returns the global feature index of view column j.
func (v *View) Feature(j int) int { return v.sub[j] }

// NumFeatures returns the full dimensionality of the underlying dataset.
func (v *View) NumFeatures() int { return len(v.dataset.cols) }

// SourceColumn returns full-space column f of the underlying dataset.
// Shared storage; do not mutate.
func (v *View) SourceColumn(f int) []float64 { return v.dataset.cols[f] }

// SourceKey identifies the underlying dataset for cross-view caching. It
// embeds the dataset's process-unique ID, so a cache that serves many
// datasets (a neighbourhood plane, a score memo) never aliases two datasets
// that happen to carry the same name.
func (v *View) SourceKey() string { return v.dataset.SourceKey() }

// CacheKey identifies the view in every cache keyed by (dataset, subspace)
// — a score memo, a neighbourhood plane: the source key, "|", and the
// subspace's Key. It is built with one allocation, since a warm memo
// lookup pays for nothing else. Caches drop a dataset's entries by the
// prefix SourceKey() + "|".
func (v *View) CacheKey() string {
	var buf [128]byte
	b := append(buf[:0], v.dataset.sourceKey...)
	b = append(b, '|')
	return string(v.sub.AppendKey(b))
}
