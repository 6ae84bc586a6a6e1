package dist

// dist_test.go predates the export of the JSON helpers (queue shares
// them now) and is kept byte-for-byte; it still says writeJSON.
var writeJSON = WriteJSON
