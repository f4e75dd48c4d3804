package core

// ClassShard exposes the class-sharding function to the external tests.
var ClassShard = classShard

// SiblingOwnsClass reports whether sibling j of the w siblings of process
// shard i of n owns crash-state class fpr.
func SiblingOwnsClass(fpr uint64, n, i, w, j int) bool {
	r := &runner{cfg: Config{ShardCount: n, ShardIndex: i}, sibling: j, siblings: w}
	return r.classOwner(fpr) == ownedHere
}
