/* Event loops of the block-count chain and of the Moran dynamics, the
 * one engine of both the long single trajectories and the ensembles of
 * short replicas.  Both read uniforms that numpy drew, in the order numpy
 * drew them, so that a run is fixed by the numpy generator alone.  Built
 * and loaded by _kernels.py. */

#include <stdint.h>
#include <string.h>

/* `steps` steps of `reps` replicas of the block-count chain, from step
 * `first_step` on.  u holds one uniform per replica-step, step-major.
 * Both moves are decided from the pre-step k: up when u < p_up[k], down
 * when u > 1 - p_down[k].  After every step whose number is a multiple of
 * `record_every` the state is appended to `out`.  Returns the rows
 * written. */
int64_t chain_run(int64_t reps, int64_t steps, int64_t first_step,
                  int64_t record_every, const double *u,
                  const double *p_up, const double *p_down, int32_t *k,
                  int32_t *out)
{
    int64_t rows = 0;
    for (int64_t s = 0; s < steps; s++) {
        const double *us = u + s * reps;
        for (int64_t r = 0; r < reps; r++) {
            int32_t kr = k[r];
            if (us[r] < p_up[kr])
                k[r] = kr + 1;
            else if (us[r] > 1.0 - p_down[kr])
                k[r] = kr - 1;
        }
        if ((first_step + s + 1) % record_every == 0) {
            memcpy(out + rows * reps, k, (size_t)reps * sizeof(int32_t));
            rows++;
        }
    }
    return rows;
}

/* Moran events on `reps` systems of n particles each, run one after
 * another: in row r, particle i has the type in slot slots[r n + i], and
 * counts[r n + t] particles have type t.
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
 * state = {row, events done in that row, sum over the events numbered
 * above burn_in of the sum of squared counts after the event}.  The
 * number of types and the sum of squares of a row are read from its
 * counts whenever the row is entered.  Runs until every row has done
 * `events` or the uniforms run out; an event is applied only once its
 * uniforms are all read, so the return value, the uniforms consumed,
 * always ends at an event boundary. */
int64_t particle_run(int64_t reps, int32_t n, double alpha, const double *g0,
                     int64_t events, int64_t burn_in, const double *u,
                     int64_t len, int32_t *slots, int32_t *counts,
                     int64_t *state)
{
    int64_t row = state[0], done = state[1], acc = state[2];
    int64_t pos = 0;
    for (; row < reps; row++, done = 0) {
        int32_t *sl = slots + row * n, *ct = counts + row * n;
        int64_t k = 0, ssq = 0;
        for (int32_t t = 0; t < n; t++) {
            k += ct[t] != 0;
            ssq += (int64_t)ct[t] * ct[t];
        }
        while (done < events) {
            int64_t p = pos;
            if (p >= len)
                goto out;
            int32_t i = (int32_t)(u[p++] * n);
            int32_t removed = sl[i];
            int64_t c = ct[removed];
            int singleton = c == 1;
            int fresh = singleton;
            if (g0) {
                if (p >= len)
                    goto out;
                fresh = u[p++] < g0[k - singleton - 1];
            }
            int32_t target = removed;
            if (fresh) {
                if (!singleton) {
                    target = 0;
                    while (ct[target])
                        target++;
                }
            } else {
                for (;;) {
                    if (p + 2 > len)
                        goto out;
                    int32_t j = (int32_t)(u[p] * n);
                    double a = u[p + 1];
                    p += 2;
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
            pos = p;
            if (++done > burn_in)
                acc += ssq;
        }
    }
out:
    state[0] = row;
    state[1] = done;
    state[2] = acc;
    return pos;
}
