/* Inner loop of maximal-violating-pair SMO for the SVDD dual.
 *
 * The compiled twin of ``solver._run_python``: from the current state it
 * takes pairwise steps until the maximal violation is at most kkt_tol or
 * ``iterations`` reaches max_iterations, and returns ``iterations``. The
 * caller owns the start, the fresh re-derivation of the gradient and the
 * convergence error. Every rounding equals the numpy loop's, so the two
 * give the same alphas bit for bit:
 *
 *   - the gradient update keeps numpy's order, d = K_i[k] - K_j[k];
 *     d *= 2 clipped; g[k] += d, and the library is built with
 *     -ffp-contract=off, so no step is fused into an FMA;
 *   - i and j are picked as numpy's argmin and argmax pick them: the first
 *     index on ties, and the first NaN when there is one;
 *   - min(step, room_i, a_j) keeps Python's rule: a later value replaces
 *     the current one only when it is strictly smaller.
 *
 * The gradient update and the choice of the next pair share one pass
 * over n. K is the exactly symmetric n x n Gram matrix, row-major.
 */

#include <math.h>
#include <stdint.h>

/* numpy's argmin and argmax rule: replace when not (v >= best), resp. not
 * (v <= best), and stop replacing once best is NaN */
#define TAKE_MIN(v, best) (!((v) >= (best)) && (best) == (best))
#define TAKE_MAX(v, best) (!((v) <= (best)) && (best) == (best))

int64_t svdd_smo_run(const double *K, const double *diag, double *alpha, double *grad,
                     double *up_pen, double *low_pen, int64_t n, double C,
                     double kkt_tol, double curvature_floor, int64_t max_iterations,
                     int64_t iterations)
{
    int64_t i = 0, j = 0, k;
    double lo = grad[0] + up_pen[0];
    double hi = grad[0] + low_pen[0];

    for (k = 1; k < n; k++) {
        double up = grad[k] + up_pen[k];
        double low = grad[k] + low_pen[k];
        if (TAKE_MIN(up, lo)) { lo = up; i = k; }
        if (TAKE_MAX(low, hi)) { hi = low; j = k; }
    }

    while (iterations < max_iterations) {
        const double violation = grad[j] - grad[i];
        if (violation <= kkt_tol)
            break;

        const double *K_i = K + i * n;
        const double *K_j = K + j * n;
        const double curvature = diag[i] + diag[j] - 2.0 * K_i[j];
        const double step = curvature > curvature_floor ? violation / (2.0 * curvature)
                                                        : INFINITY;
        const double a_i = alpha[i];
        const double a_j = alpha[j];
        const double room_i = C - a_i;
        double clipped = step;
        if (room_i < clipped)
            clipped = room_i;
        if (a_j < clipped)
            clipped = a_j;
        const double new_i = clipped >= room_i ? C : a_i + clipped;
        const double new_j = clipped >= a_j ? 0.0 : a_j - clipped;
        alpha[i] = new_i;
        alpha[j] = new_j;
        up_pen[i] = new_i < C ? 0.0 : INFINITY;
        up_pen[j] = new_j < C ? 0.0 : INFINITY;
        low_pen[i] = new_i > 0.0 ? 0.0 : -INFINITY;
        low_pen[j] = new_j > 0.0 ? 0.0 : -INFINITY;

        const double scale = 2.0 * clipped;
        double d = K_i[0] - K_j[0];
        d *= scale;
        grad[0] += d;
        lo = grad[0] + up_pen[0];
        hi = grad[0] + low_pen[0];
        i = 0;
        j = 0;
        for (k = 1; k < n; k++) {
            d = K_i[k] - K_j[k];
            d *= scale;
            grad[k] += d;
            const double up = grad[k] + up_pen[k];
            const double low = grad[k] + low_pen[k];
            if (TAKE_MIN(up, lo)) { lo = up; i = k; }
            if (TAKE_MAX(low, hi)) { hi = low; j = k; }
        }
        iterations++;
    }
    return iterations;
}
