/* Event loops of the long single trajectories: the block-count chain and
 * the scalar Moran dynamics.  Both read uniforms that numpy drew, in the
 * order numpy drew them, so that a run is fixed by the numpy generator
 * alone.  Built and loaded by _kernels.py. */

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

/* Moran events on one system of n particles: particle i has the type in
 * slot slots[i], and counts[t] particles have type t.
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
 * state = {events done, k, sum of squared counts, sum over the events
 * numbered above burn_in of the sum of squares after the event}.  Runs
 * until `events` are done or the uniforms run out; an event is applied
 * only once its uniforms are all read, so the return value, the uniforms
 * consumed, always ends at an event boundary. */
int64_t particle_run(int32_t n, double alpha, const double *g0,
                     int64_t events, int64_t burn_in, const double *u,
                     int64_t len, int32_t *slots, int32_t *counts,
                     int64_t *state)
{
    int64_t done = state[0], k = state[1], ssq = state[2], acc = state[3];
    int64_t pos = 0;
    while (done < events) {
        int64_t p = pos;
        if (p >= len)
            break;
        int32_t i = (int32_t)(u[p++] * n);
        int32_t removed = slots[i];
        int64_t c = counts[removed];
        int singleton = c == 1;
        int fresh = singleton;
        if (g0) {
            if (p >= len)
                break;
            fresh = u[p++] < g0[k - singleton - 1];
        }
        int32_t target = removed;
        if (fresh) {
            if (!singleton) {
                target = 0;
                while (counts[target])
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
                int32_t t = slots[j];
                double ct = (double)(counts[t] - (t == removed));
                if (a * ct < ct - alpha) {
                    target = t;
                    break;
                }
            }
        }
        counts[removed] = (int32_t)(c - 1);
        ssq += 1 - 2 * c;
        int64_t cn = counts[target];
        counts[target] = (int32_t)(cn + 1);
        ssq += 2 * cn + 1;
        slots[i] = target;
        k += fresh - singleton;
        pos = p;
        if (++done > burn_in)
            acc += ssq;
    }
out:
    state[0] = done;
    state[1] = k;
    state[2] = ssq;
    state[3] = acc;
    return pos;
}
