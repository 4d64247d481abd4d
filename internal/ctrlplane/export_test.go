package ctrlplane

// LimboCap exposes the quarantine bound to the external tests.
const LimboCap = limboCap
