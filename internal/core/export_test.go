package core

// ClassShard exposes the class-sharding function to the external tests.
var ClassShard = classShard
