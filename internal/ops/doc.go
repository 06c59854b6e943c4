// Package ops implements the distributed operations the checkers verify,
// following Thrill's operation vocabulary (Section 1/2 of the paper):
// ReduceByKey (sum/count aggregation), GroupByKey, sample Sort, Merge,
// Zip, Union, Join, and the derived aggregations MinByKey, MaxByKey,
// MedianByKey and AverageByKey.
//
// Every operation is SPMD: it is called with a dist.Worker and this PE's
// local share of the input, and returns this PE's local share of the
// output. Operations are deliberately independent of the checkers — the
// checkers treat them as black boxes (invasive checkers observe only the
// declared redistribution interfaces).
//
// The local work runs on the radix sorts of internal/data. Sort sorts
// its share; ReduceByKey sorts by key and folds each run of equal keys;
// GroupLocal and JoinLocal (a sort-merge join) sort by (key, value).
// Every output order is total, so outputs are bit-identical to those of
// the comparison sorts and hash maps the kernels replaced, which
// kernel_test.go keeps as oracles.
package ops
