package server

// SetDraining flips the drain flag alone, leaving the listener open, so a
// test can connect inside the window between Shutdown's two steps.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }
