/*
 * Analysis kernels over a CSR graph (indptr[n + 1], indices[m]), loaded
 * by repro/native/__init__.py.  Each one does the same operations in the
 * same order as the Python or numpy code it replaces, so its result is
 * array-equal to that code's:
 *
 *   - repro_spmv: Algorithm 1's row loop.  Each row sums from 0.0 in
 *     slot order, as spmv_naive and the bincount kernel do; NULL
 *     weights mean unit weights, and 1.0 * x == x exactly.  Build with
 *     -ffp-contract=off: a fused multiply-add rounds once, not twice.
 *   - repro_core_numbers: Batagelj-Zaversnik bucket peeling, vertices
 *     bucketed in id order, self-loops skipped (analysis/kcore.py).
 *   - repro_scc: iterative Tarjan with roots in id order and neighbours
 *     in slot order; component ids in completion order (analysis/scc.py).
 *
 * Callers pass C-contiguous int64/float64 arrays and the scratch space
 * each kernel names; the kernels allocate nothing.
 */
#include <stdint.h>

void repro_spmv(int64_t n, const int64_t *indptr, const int64_t *indices,
                const double *weights, const double *x, double *y)
{
    int64_t v, k;
    if (weights) {
        for (v = 0; v < n; v++) {
            double acc = 0.0;
            for (k = indptr[v]; k < indptr[v + 1]; k++)
                acc += weights[k] * x[indices[k]];
            y[v] = acc;
        }
    } else {
        for (v = 0; v < n; v++) {
            double acc = 0.0;
            for (k = indptr[v]; k < indptr[v + 1]; k++)
                acc += x[indices[k]];
            y[v] = acc;
        }
    }
}

/* core[n] receives the core numbers; scratch holds 3n + 1 int64:
 * vert[n] (vertices by current degree), pos[n] (each vertex's slot in
 * vert) and bin[n + 1] (start of each degree's region of vert).  A
 * simple graph's degree is below n, so n + 1 buckets suffice. */
void repro_core_numbers(int64_t n, const int64_t *indptr,
                        const int64_t *indices, int64_t *core,
                        int64_t *scratch)
{
    int64_t *vert = scratch, *pos = scratch + n, *bin = scratch + 2 * n;
    int64_t v, k, d, max_deg = 0;
    for (v = 0; v < n; v++) {
        int64_t deg = 0;
        for (k = indptr[v]; k < indptr[v + 1]; k++)
            deg += indices[k] != v;
        core[v] = deg;
        if (deg > max_deg)
            max_deg = deg;
    }
    for (d = 0; d <= max_deg; d++)
        bin[d] = 0;
    for (v = 0; v < n; v++)
        bin[core[v]]++;
    int64_t start = 0;
    for (d = 0; d <= max_deg; d++) {
        const int64_t count = bin[d];
        bin[d] = start;
        start += count;
    }
    /* Fill vert in id order; bin[d] ends at the start of bucket d + 1. */
    for (v = 0; v < n; v++) {
        pos[v] = bin[core[v]]++;
        vert[pos[v]] = v;
    }
    for (d = max_deg; d > 0; d--)
        bin[d] = bin[d - 1];
    bin[0] = 0;

    int64_t i;
    for (i = 0; i < n; i++) {
        v = vert[i];
        const int64_t dv = core[v];
        for (k = indptr[v]; k < indptr[v + 1]; k++) {
            const int64_t u = indices[k];
            const int64_t du = core[u];
            if (u == v || du <= dv)
                continue;
            /* Move u to the front of its bucket and shrink the bucket. */
            const int64_t pu = pos[u], pw = bin[du], w = vert[pw];
            if (u != w) {
                vert[pu] = w;
                vert[pw] = u;
                pos[u] = pw;
                pos[w] = pu;
            }
            bin[du]++;
            core[u] = du - 1;
        }
    }
}

/* labels[n] receives component ids; scratch holds 5n int64: index[n],
 * lowlink[n], the Tarjan stack[n] and the DFS frames' vertex[n] and
 * cursor[n].  A visited vertex is on the Tarjan stack exactly while it
 * has no label.  Returns the number of components. */
int64_t repro_scc(int64_t n, const int64_t *indptr, const int64_t *indices,
                  int64_t *labels, int64_t *scratch)
{
    int64_t *index = scratch, *lowlink = scratch + n, *stack = scratch + 2 * n;
    int64_t *frame_v = scratch + 3 * n, *frame_c = scratch + 4 * n;
    int64_t next_index = 0, components = 0, top = 0;
    int64_t root, v;
    for (v = 0; v < n; v++) {
        index[v] = -1;
        labels[v] = -1;
    }
    for (root = 0; root < n; root++) {
        if (index[root] != -1)
            continue;
        int64_t depth = 1;
        frame_v[0] = root;
        frame_c[0] = indptr[root];
        index[root] = lowlink[root] = next_index++;
        stack[top++] = root;
        while (depth > 0) {
            v = frame_v[depth - 1];
            int64_t cursor = frame_c[depth - 1];
            const int64_t end = indptr[v + 1];
            int advanced = 0;
            while (cursor < end) {
                const int64_t t = indices[cursor++];
                if (index[t] == -1) {
                    frame_c[depth - 1] = cursor;
                    index[t] = lowlink[t] = next_index++;
                    stack[top++] = t;
                    frame_v[depth] = t;
                    frame_c[depth] = indptr[t];
                    depth++;
                    advanced = 1;
                    break;
                }
                if (labels[t] < 0 && index[t] < lowlink[v])
                    lowlink[v] = index[t];
            }
            if (advanced)
                continue;
            /* v is finished; close its component if it is a root. */
            if (lowlink[v] == index[v]) {
                int64_t w;
                do {
                    w = stack[--top];
                    labels[w] = components;
                } while (w != v);
                components++;
            }
            depth--;
            if (depth > 0) {
                const int64_t parent = frame_v[depth - 1];
                if (lowlink[v] < lowlink[parent])
                    lowlink[parent] = lowlink[v];
            }
        }
    }
    return components;
}
