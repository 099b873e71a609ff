/*
 * Sequential incremental aggregation (Algorithm 2 lines 3-8 with
 * Algorithm 4's lazy fold) over flat arrays: the inner loop of the
 * "fast" sequential engine, loaded by repro/rabbit/native.py.
 *
 * Every floating-point operation happens in the dict engine's order, so
 * the dendrogram is bit-identical to repro.rabbit.seq's oracle:
 *
 *   - members are u, then child[u], then each sibling in turn;
 *   - endpoints resolve through dest with the oracle's path compression;
 *   - a raw self-loop of u is doubled into the community self-loop;
 *   - per-neighbour sums start from 0.0 and add weights in encounter
 *     order, keys kept in first-encounter order (a dense pos[] map,
 *     reset after each vertex);
 *   - dQ = 2.0 * (w * inv_2m - comm_deg[v] * penalty), best kept on a
 *     strict '>' from -inf.
 *
 * Build with -ffp-contract=off: a fused multiply-add in the dQ line
 * would round once instead of twice and change the last ulp.
 *
 * Folded entries go to the keys/ws pools (self-loop key last); an entry
 * is written straight past the pool cursor, so the caller guarantees
 * nothing but capacity.  The sweep stops before a vertex whose fold
 * might not fit (leaving the slots it needs in ctr[CTR_NEED]) and
 * returns how far it got.
 */
#include <math.h>
#include <stdint.h>

#define NO_VERTEX ((int64_t)-1)

/* ctr[] slots, shared with the Python driver. */
enum { CTR_CURSOR, CTR_TOPLEVELS, CTR_SCANNED, CTR_MERGES, CTR_NEED };

static inline int64_t resolve(int64_t *dest, int64_t t)
{
    for (;;) {
        int64_t d = dest[t];
        int64_t dd = dest[d];
        if (d == dd)
            return d;
        dest[t] = dd;
        t = dd;
    }
}

static inline void accumulate(int64_t *pos, int64_t *keys, double *ws,
                              int64_t *len, int64_t base, int64_t d, double w)
{
    int64_t p = pos[d];
    if (p < 0) {
        p = base + (*len)++;
        pos[d] = p;
        keys[p] = d;
        ws[p] = 0.0 + w;
    } else {
        ws[p] += w;
    }
}

int64_t rabbit_fold_sweep(
    const int64_t *indptr, const int64_t *indices, const double *weights,
    const int64_t *order, int64_t begin, int64_t end,
    int64_t *dest, int64_t *child, int64_t *sibling, double *comm_deg,
    int64_t *aoff, int64_t *alen, int64_t *keys, double *ws, int64_t cap,
    int64_t *pos, int64_t *toplevel, int64_t *vertex_work,
    double two_m, double merge_threshold, int64_t *ctr)
{
    const double inv_2m = 1.0 / two_m;
    int64_t cursor = ctr[CTR_CURSOR];
    int64_t i;
    for (i = begin; i < end; i++) {
        const int64_t u = order[i];
        const int64_t lo = indptr[u], hi = indptr[u + 1];
        int64_t total = hi - lo;
        int64_t c;
        for (c = child[u]; c != NO_VERTEX; c = sibling[c])
            total += alen[c];
        if (cursor + total + 1 > cap) {
            ctr[CTR_NEED] = total + 1; /* the caller grows and calls again */
            break;
        }

        const int64_t base = cursor;
        int64_t len = 0;
        double loop = 0.0;
        int64_t k;
        for (k = lo; k < hi; k++) {
            const int64_t t = indices[k];
            const double w = weights ? weights[k] : 1.0;
            if (t == u) {
                loop += 2.0 * w;
                continue;
            }
            const int64_t d = resolve(dest, t);
            if (d == u)
                loop += w;
            else
                accumulate(pos, keys, ws, &len, base, d, w);
        }
        for (c = child[u]; c != NO_VERTEX; c = sibling[c]) {
            const int64_t off = aoff[c], stop = aoff[c] + alen[c];
            for (k = off; k < stop; k++) {
                const double w = ws[k];
                const int64_t d = resolve(dest, keys[k]);
                if (d == u)
                    loop += w;
                else
                    accumulate(pos, keys, ws, &len, base, d, w);
            }
        }

        const double d_u = comm_deg[u];
        const double penalty = d_u / (two_m * two_m);
        int64_t best_v = -1;
        double best_dq = -INFINITY;
        for (k = base; k < base + len; k++) {
            const int64_t v = keys[k];
            const double dq = 2.0 * (ws[k] * inv_2m - comm_deg[v] * penalty);
            if (dq > best_dq) {
                best_dq = dq;
                best_v = v;
            }
            pos[v] = -1;
        }
        keys[base + len] = u; /* self-loop entry last, per convention */
        ws[base + len] = loop;
        aoff[u] = base;
        alen[u] = len + 1;
        cursor = base + len + 1;
        ctr[CTR_SCANNED] += total;
        if (vertex_work)
            vertex_work[u] = total;

        if (best_v < 0 || best_dq <= merge_threshold) {
            toplevel[ctr[CTR_TOPLEVELS]++] = u;
        } else {
            dest[u] = best_v;
            sibling[u] = child[best_v];
            child[best_v] = u;
            comm_deg[best_v] += d_u;
            ctr[CTR_MERGES]++;
        }
    }
    ctr[CTR_CURSOR] = cursor;
    return i;
}
