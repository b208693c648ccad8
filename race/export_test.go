package race

// WithBatchSize sets the parallel pipeline's batch length in place of
// batchSize, so that the package's tests can put batch boundaries anywhere
// in a stream. It exists only in tests.
func WithBatchSize(k int) Option {
	return func(c *engineConfig) { c.batch = k }
}
