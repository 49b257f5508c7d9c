package core

// CheckCandidateSpans lets the external tests, which can import the
// experiments workloads, run checkCandidateSpans.
var CheckCandidateSpans = checkCandidateSpans
