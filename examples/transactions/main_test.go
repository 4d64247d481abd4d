package main

import "testing"

// TestExample runs the example end to end; a panic inside it fails the test.
func TestExample(t *testing.T) { main() }
