/* flownet's RK4 kernel: the density dynamics' right-hand side and its
 * classical fixed-step Runge-Kutta steps over B members of one network.
 *
 * A member's links are ordered by (tail, id), so each node's out-links are
 * one contiguous group; the flat state holds B * m densities, member after
 * member.  For link e out of node v,
 *
 *     d rho_e / dt = lam_v * G_v_e(rho_v) - f_e,
 *     f_e = (-f_max_e) * expm1((-rate_e) * rho_e),
 *     G_v_e = w_e exp(-eta_v rho_e - max) / sum over v's out-links,
 *
 * with lam_v the network inflow at the origin and the sum of v's in-link
 * flows elsewhere.
 *
 * Every IEEE operation is the one numpy's ufuncs make on the same arrays,
 * in the same order (compile with -ffp-contract=off, so no product is fused
 * into an addition).  The three operations whose bits depend on the host
 * are handed to numpy's own code through pointers the loader reads out of
 * numpy: the float64 expm1 and exp inner loops, called in place on the
 * whole state as np.expm1(f, f) and np.exp(g, g) call them; numpy's float64
 * add loop in reduce mode for each group's sum, which is how
 * np.add.reduceat sums a group (its first element plus numpy's pairwise sum
 * of the rest); and numpy's BLAS dgemv, called once per member as
 * np.matmul calls it for an (m, m) matrix times an (m, 1) column.
 */
#include <stdint.h>
#include <string.h>

typedef int64_t idx; /* npy_intp, and the integer of numpy's ILP64 BLAS */

/* a numpy ufunc inner loop (PyUFuncGenericFunction) */
typedef void (*ufunc_loop)(char **args, const idx *dimensions, const idx *steps, void *data);
/* cblas_dgemv of numpy's bundled OpenBLAS */
typedef void (*dgemv_fn)(int order, int trans, idx m, idx n, double alpha, const double *a,
                         idx lda, const double *x, idx incx, double beta, double *y, idx incy);

enum { CBLAS_COL_MAJOR = 102, CBLAS_TRANS = 112 };

/* One run's kernel.  The loader fills it from numpy arrays it keeps alive;
 * the field order is mirrored by the loader's ctypes structure. */
struct rk4 {
    idx members, links, groups;   /* B, m, and the out-link groups of all members */
    idx origin_lo, origin_hi;     /* the origin's links within a member */
    const idx *group_start;       /* groups + 1 offsets into the flat state */
    const double *neg_rate;       /* -rate, B * m */
    const double *neg_f_max;      /* -f_max, each member's capacities scaled, B * m */
    const double *neg_eta;        /* -eta of each link's tail, B * m */
    const double *weight;         /* the policy's weight of each link, B * m */
    const double *tail_head;      /* (m, m): row e is the head incidence of e's tail */
    double *flow, *inflow;        /* f and lam, B * m, overwritten by every evaluation */
    double *k1, *k2, *k3, *k4, *stage; /* B * m each, overwritten by every step */
    ufunc_loop expm1, exp, add;
    void *expm1_data, *exp_data, *add_data;
    dgemv_fn dgemv;
};

/* np.maximum and np.minimum on float64: a NaN first operand is returned, and
 * the second operand wins a tie (so maximum(-0.0, 0.0) is 0.0) or a NaN. */
static double maxn(double a, double b) { return a != a ? a : (a > b ? a : b); }
static double minn(double a, double b) { return a != a ? a : (a < b ? a : b); }

static void unary_in_place(ufunc_loop loop, void *data, double *x, idx n)
{
    char *args[2] = {(char *)x, (char *)x};
    idx steps[2] = {sizeof(double), sizeof(double)};
    loop(args, &n, steps, data);
}

/* d rho / dt of the flat state rho into out, the origin fed at inflow */
static void rhs(const struct rk4 *k, double inflow, const double *rho, double *out)
{
    const idx m = k->links, n = k->members * m;
    double *f = k->flow, *lam = k->inflow, *g = out;
    if (n == 0)
        return;
    for (idx i = 0; i < n; i++)
        f[i] = k->neg_rate[i] * rho[i];
    unary_in_place(k->expm1, k->expm1_data, f, n);
    for (idx i = 0; i < n; i++)
        f[i] *= k->neg_f_max[i];
    for (idx b = 0; b < k->members; b++) {
        k->dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, m, m, 1.0, k->tail_head, m, f + b * m, 1, 0.0,
                 lam + b * m, 1);
        for (idx e = k->origin_lo; e < k->origin_hi; e++)
            lam[b * m + e] = inflow;
    }
    for (idx i = 0; i < n; i++)
        g[i] = k->neg_eta[i] * rho[i];
    for (idx j = 0; j < k->groups; j++) { /* np.maximum.reduceat, then subtracted */
        const idx lo = k->group_start[j], hi = k->group_start[j + 1];
        double top = g[lo];
        for (idx i = lo + 1; i < hi; i++)
            top = maxn(top, g[i]);
        for (idx i = lo; i < hi; i++)
            g[i] -= top;
    }
    unary_in_place(k->exp, k->exp_data, g, n);
    for (idx i = 0; i < n; i++)
        g[i] *= k->weight[i];
    for (idx j = 0; j < k->groups; j++) { /* np.add.reduceat, then divided */
        const idx lo = k->group_start[j], hi = k->group_start[j + 1];
        double sum = g[lo];
        idx rest = hi - lo - 1;
        if (rest > 0) {
            char *args[3] = {(char *)&sum, (char *)(g + lo + 1), (char *)&sum};
            idx steps[3] = {0, sizeof(double), 0};
            k->add(args, &rest, steps, k->add_data);
        }
        for (idx i = lo; i < hi; i++)
            g[i] = g[i] / sum * lam[i] - f[i];
    }
}

void flownet_rk4_rhs(const struct rk4 *k, double inflow, const double *rho, double *out)
{
    rhs(k, inflow, rho, out);
}

/* Integrate records first .. first + rows - 1 of a run of n_steps steps of dt,
 * record r at step min(r * stride, n_steps), from *step steps taken so far.
 * Each record's time goes to times and its state to a row of states.
 * stage_inflow is NULL for the constant inflow, else three origin inflows per
 * step from *step on, at the step's start, midpoint and end.  A step clamps
 * densities below zero to zero (undershoot: each member's worst clamp so far)
 * and then checks every density against ceiling.  Returns 0, or 1 when a
 * density is past the ceiling or NaN, with rho that step's state.  Either way
 * *step is the steps taken. */
int flownet_rk4_block(const struct rk4 *k, double *rho, double *undershoot, double *times,
                      double *states, idx first, idx rows, idx n_steps, idx stride, double dt,
                      idx *step, const double *stage_inflow, double inflow, double ceiling)
{
    const idx m = k->links, n = k->members * m, start = *step;
    const double half = 0.5 * dt, sixth = dt / 6.0;
    double *k1 = k->k1, *k2 = k->k2, *k3 = k->k3, *k4 = k->k4, *s = k->stage;
    idx taken = start;
    for (idx r = 0; r < rows; r++) {
        idx target = (first + r) * stride;
        if (target > n_steps)
            target = n_steps;
        while (taken < target) {
            const double *in = stage_inflow ? stage_inflow + 3 * (taken - start) : 0;
            const double at_start = in ? in[0] : inflow, at_half = in ? in[1] : inflow,
                         at_end = in ? in[2] : inflow;
            int clamp = 0;
            taken++;
            rhs(k, at_start, rho, k1);
            for (idx i = 0; i < n; i++)
                s[i] = k1[i] * half + rho[i];
            rhs(k, at_half, s, k2);
            for (idx i = 0; i < n; i++)
                s[i] = k2[i] * half + rho[i];
            rhs(k, at_half, s, k3);
            for (idx i = 0; i < n; i++)
                s[i] = k3[i] * dt + rho[i];
            rhs(k, at_end, s, k4);
            for (idx i = 0; i < n; i++) {
                rho[i] = (k2[i] * 2.0 + k1[i] + k3[i] * 2.0 + k4[i]) * sixth + rho[i];
                clamp |= !(rho[i] >= 0.0);
            }
            if (clamp) { /* a NaN anywhere clamps every member too */
                for (idx b = 0; b < k->members; b++) {
                    const double *x = rho + b * m;
                    double low = x[0];
                    for (idx i = 1; i < m; i++)
                        low = minn(low, x[i]);
                    undershoot[b] = maxn(undershoot[b], -low);
                }
                for (idx i = 0; i < n; i++)
                    rho[i] = maxn(rho[i], 0.0);
            }
            for (idx i = 0; i < n; i++) {
                if (!(rho[i] <= ceiling)) { /* also catches NaN */
                    *step = taken;
                    return 1;
                }
            }
        }
        times[r] = (double)taken * dt;
        memcpy(states + r * n, rho, n * sizeof(double));
    }
    *step = taken;
    return 0;
}
