package grtblade

// rescan_test.go predates the scaffold: it drives the getmulti fill and the
// rescan switch by their old package-level names, over bare kernel cursors.
var grtGetMulti, grtRescan = purpose.GetMulti, purpose.Rescan
