package sweep

import "context"

// Run is RunCtx without cancellation.
func Run[T any](parallel, n int, fn func(i int) T) []T {
	out, _ := RunCtx(context.Background(), parallel, n, fn)
	return out
}
