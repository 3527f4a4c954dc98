package main

import "testing"

// TestExample runs the example end to end; a failure inside it exits the
// test binary non-zero through log.Fatal.
func TestExample(t *testing.T) { main() }
