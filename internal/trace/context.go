package trace

import "context"

// WithCollector installs a collector into ctx. The next Start under this
// context opens a root span and allocates a fresh trace id.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxInfo{c: c})
}

// Start opens a span named name as a child of the span enclosing ctx. With
// no collector installed it returns (ctx, nil); the nil span's methods are
// no-ops, so call sites need no conditionals.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	info, ok := ctx.Value(ctxKey{}).(ctxInfo)
	if !ok || info.c == nil {
		return ctx, nil
	}
	sp := info.c.open(info.trace, info.span, name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, ctxInfo{c: info.c, trace: sp.trace, span: sp.id}), sp
}

// Join attaches a remotely originated (trace id, parent span id) pair to ctx
// against the local collector c: spans Started under the returned context
// file under that trace id. The TCP server side uses this with the ids
// parsed off the frame; ids are recorded but the trace is only retained by
// the collector that owns the root span.
func Join(ctx context.Context, c *Collector, id ID, parentSpan uint64) context.Context {
	if c == nil || id == 0 {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxInfo{c: c, trace: id, span: parentSpan})
}

// Wire returns the (trace id, current span id) pair to encode on an outgoing
// RPC frame, or ok=false when ctx carries no live trace.
func Wire(ctx context.Context) (id ID, span uint64, ok bool) {
	info, isSet := ctx.Value(ctxKey{}).(ctxInfo)
	if !isSet || info.trace == 0 {
		return 0, 0, false
	}
	return info.trace, info.span, true
}
