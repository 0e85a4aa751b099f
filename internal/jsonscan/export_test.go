package jsonscan

// Pos returns the cursor, so that tests outside the package can check
// where a primitive stopped.
func (s *Scanner) Pos() int { return s.i }
