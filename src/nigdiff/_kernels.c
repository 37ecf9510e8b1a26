/* Event loops of the block-count chain, of the Moran dynamics and of
 * both urns, the Gibbs-triangle descent the urns read g0 from, and the
 * power sums of Moran counts.  The loops draw their uniforms from
 * numpy's bit generator, one next_double call per uniform, which is how
 * Generator.random fills its output; so a run reads the same uniforms
 * in the same order as a loop over rng.random() would, and leaves the
 * generator just past the last one.  Built and loaded by _kernels.py. */

#include <stdint.h>
#include <string.h>

/* numpy's bitgen_t, as declared in numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* `steps` steps of `reps` replicas of the block-count chain, one uniform
 * u per replica-step, step-major.  Both moves are decided from the
 * pre-step k: up when u < p_up[k], down when u > 1 - p_down[k].  After
 * every step whose number is a multiple of `record_every` the state is
 * appended to `out`.  Returns the rows written. */
int64_t chain_run(bitgen_t *bg, int64_t reps, int64_t steps,
                  int64_t record_every, const double *p_up,
                  const double *p_down, int32_t *k, int32_t *out)
{
    double (*next)(void *) = bg->next_double;
    void *st = bg->state;
    int64_t rows = 0;
    for (int64_t s = 1; s <= steps; s++) {
        for (int64_t r = 0; r < reps; r++) {
            int32_t kr = k[r];
            double u = next(st);
            if (u < p_up[kr])
                k[r] = kr + 1;
            else if (u > 1.0 - p_down[kr])
                k[r] = kr - 1;
        }
        if (s % record_every == 0) {
            memcpy(out + rows * reps, k, (size_t)reps * sizeof(int32_t));
            rows++;
        }
    }
    return rows;
}

/* `events` Moran events on each of `reps` systems of n particles, run
 * one after another: in row r, particle i has the type in slot
 * slots[r n + i], and counts[r n + t] particles have type t.
 *
 * One event removes particle i = floor(u n).  With g0 given (free mode)
 * the next uniform makes the incoming particle fresh when it is below
 * g0[k_r - 1], k_r the number of types left; with g0 NULL (conditioned
 * mode) it is fresh exactly when the removed particle was a singleton.
 * A fresh type takes the freed slot, or the first empty slot when the
 * removed particle's type survives.  Otherwise (j, a) pairs are read
 * until j = floor(u n) differs from i and a c < c - alpha, with c the
 * post-removal count of j's type; the incoming particle copies that type.
 *
 * A row's counts, types and sum of squared counts are rebuilt from its
 * slots when the row starts.  Returns the sum, over every row's events
 * numbered above burn_in, of the sum of squared counts after the event. */
int64_t particle_run(bitgen_t *bg, int64_t reps, int32_t n, double alpha,
                     const double *g0, int64_t events, int64_t burn_in,
                     int32_t *slots, int32_t *counts)
{
    double (*next)(void *) = bg->next_double;
    void *st = bg->state;
    int64_t acc = 0;
    for (int64_t row = 0; row < reps; row++) {
        int32_t *sl = slots + row * n, *ct = counts + row * n;
        int64_t k = 0, ssq = 0;
        memset(ct, 0, (size_t)n * sizeof(int32_t));
        for (int32_t p = 0; p < n; p++) {
            int64_t c = ct[sl[p]]++;
            k += c == 0;
            ssq += 2 * c + 1;
        }
        for (int64_t done = 1; done <= events; done++) {
            int32_t i = (int32_t)(next(st) * n);
            int32_t removed = sl[i];
            int64_t c = ct[removed];
            int singleton = c == 1;
            int fresh = singleton;
            if (g0)
                fresh = next(st) < g0[k - singleton - 1];
            int32_t target = removed;
            if (fresh) {
                if (!singleton) {
                    target = 0;
                    while (ct[target])
                        target++;
                }
            } else {
                for (;;) {
                    int32_t j = (int32_t)(next(st) * n);
                    double a = next(st);
                    if (j == i)
                        continue;
                    int32_t t = sl[j];
                    double cj = (double)(ct[t] - (t == removed));
                    if (a * cj < cj - alpha) {
                        target = t;
                        break;
                    }
                }
            }
            ct[removed] = (int32_t)(c - 1);
            ssq += 1 - 2 * c;
            int64_t cn = ct[target];
            ct[target] = (int32_t)(cn + 1);
            ssq += 2 * cn + 1;
            sl[i] = target;
            k += fresh - singleton;
            if (done > burn_in)
                acc += ssq;
        }
    }
    return acc;
}

/* The rows m = m1 - 1 down to m0 of the Gibbs triangle below row m1,
 * at rows[(m - m0) width + k - lo] for k = lo.. up to one fewer per
 * step down; the caller sets row m1 and, over its `width` entries,
 * rho = rho(m1 + 1, k) and d = d(m1, k), which are overwritten.  Each
 * step takes rho = rho d[k+1] / d[k], d = (m - alpha k) + rho and
 * g0 = rho / d, the operations of numpy's loop in its order. */
void g0_descend(int64_t m0, int64_t m1, int64_t lo, int64_t width,
                double alpha, double *rho, double *d, double *rows)
{
    for (int64_t m = m1 - 1; m >= m0; m--) {
        double *row = rows + (m - m0) * width;
        int64_t w = width - (m1 - m);
        for (int64_t j = 0; j < w; j++) {
            rho[j] = rho[j] * d[j + 1] / d[j];
            d[j] = ((double)m - alpha * (double)(lo + j)) + rho[j];
            row[j] = rho[j] / d[j];
        }
    }
}

/* `steps` urn steps of `reps` runs, step-major: at step s run r opens a
 * new block, k[r] += 1, when its uniform is below
 * rows[s width + k[r] - lo]. */
void urn_run(bitgen_t *bg, int64_t reps, int64_t steps, int64_t width,
             int64_t lo, const double *rows, int64_t *k)
{
    double (*next)(void *) = bg->next_double;
    void *st = bg->state;
    for (int64_t s = 0; s < steps; s++) {
        const double *row = rows + s * width;
        for (int64_t r = 0; r < reps; r++)
            k[r] += next(st) < row[k[r] - lo];
    }
}

/* `steps` steps of the scalar urn from m = m0 with k blocks of sizes
 * sizes[0..k-1]; returns the new k.  The step at m opens a block when
 * its uniform u is below g0 = rows[(m - m0) width + k - lo].  Otherwise
 * it walks x = (u - g0) / (1 - g0) * (m - alpha k) down the blocks,
 * x -= n_j - alpha, and the first block at which x < 0 (the last one,
 * if roundoff leaves none) gains an item: the operations of a Python
 * loop over the steps, in its order. */
int64_t partition_run(bitgen_t *bg, int64_t m0, int64_t steps, int64_t width,
                      int64_t lo, double alpha, const double *rows,
                      int64_t k, int64_t *sizes)
{
    double (*next)(void *) = bg->next_double;
    void *st = bg->state;
    for (int64_t i = 0; i < steps; i++) {
        double u = next(st);
        double g0 = rows[i * width + k - lo];
        if (u < g0) {
            sizes[k++] = 1;
            continue;
        }
        double x = (u - g0) / (1.0 - g0)
                   * ((double)(m0 + i) - alpha * (double)k);
        int64_t j = 0;
        while (j < k - 1) {
            x -= (double)sizes[j] - alpha;
            if (x < 0.0)
                break;
            j++;
        }
        sizes[j]++;
    }
    return k;
}

/* out[r] = sum_t table[counts[r n + t]] over t = 0..n-1 in slot order,
 * summed from 0.0, for each of `reps` rows of counts. */
void power_sums(int64_t reps, int64_t n, const double *table,
                const int32_t *counts, double *out)
{
    for (int64_t r = 0; r < reps; r++) {
        const int32_t *ct = counts + r * n;
        double acc = 0.0;
        for (int64_t t = 0; t < n; t++)
            acc += table[ct[t]];
        out[r] = acc;
    }
}
