//! Parameterized layers: convolution, batch normalization, linear.
//!
//! Every layer implements a real forward and backward pass. Reductions run
//! in one of two modes (see `mmlib_tensor::ops`):
//!
//! * **Deterministic** — single-threaded, and every output element is
//!   reduced in one fixed serial order; bit-reproducible across runs. The
//!   kernels still vectorise, but only across *independent* outputs
//!   (channels, or rows of a `Linear`), never across a reduction, so a
//!   vector lane adds exactly the terms a scalar loop would, in its order.
//!   What determinism costs is the second core, not SIMD.
//! * **Parallel** — work is split over threads; reductions whose partial
//!   results are combined across threads (batch-norm statistics, weight and
//!   bias gradients) combine **in completion order**, so the low-order bits
//!   vary run to run. This mirrors how non-deterministic cuDNN kernels
//!   behave and is what the paper's deterministic-training study (Fig. 13)
//!   toggles. A `Conv2d` runs the same per-image kernels in both modes;
//!   this mode only deals the images to threads.

// Kernels index by (image, channel, position) throughout; iterator-chain
// rewrites obscure the arithmetic without changing the codegen.
#![allow(clippy::needless_range_loop)]

use mmlib_tensor::{ExecMode, Init, Tensor};

use crate::module::{dims4, Ctx, EntryKind};

pub use mmlib_tensor::init::Init as LayerInit;

/// Minimum per-call work (in output elements) before the parallel mode
/// actually spawns threads; below this the fixed pairwise order is used.
const PAR_MIN_WORK: usize = 4096;
/// Worker count for parallel kernels.
const PAR_THREADS: usize = 8;

fn conv_out(h: usize, k: usize, stride: usize, pad: usize) -> usize {
    assert!(h + 2 * pad >= k, "spatial dim {h} too small for kernel {k} with pad {pad}");
    (h + 2 * pad - k) / stride + 1
}

/// Combines per-chunk partial tensors into `acc` in completion order when in
/// parallel mode (non-deterministic), or in index order when deterministic.
fn reduce_partials(acc: &mut [f32], partials: Vec<Vec<f32>>, mode: ExecMode) {
    match mode {
        ExecMode::Deterministic => {
            for p in partials {
                for (a, v) in acc.iter_mut().zip(p) {
                    *a += v;
                }
            }
        }
        ExecMode::Parallel => {
            // Emulate completion-order combining: the caller already received
            // the partials in completion order (see `parallel_partials`).
            for p in partials {
                for (a, v) in acc.iter_mut().zip(p) {
                    *a += v;
                }
            }
        }
    }
}

/// Runs `work(chunk_index) -> Vec<f32>` for `chunks` chunks on worker
/// threads and returns the partial buffers **in completion order**.
fn parallel_partials<F>(chunks: usize, work: F) -> Vec<Vec<f32>>
where
    F: Fn(usize) -> Vec<f32> + Sync,
{
    let (tx, rx) = std::sync::mpsc::channel::<Vec<f32>>();
    crossbeam::scope(|s| {
        for i in 0..chunks {
            let tx = tx.clone();
            let work = &work;
            s.spawn(move |_| {
                let _ = tx.send(work(i));
            });
        }
        drop(tx);
        rx.iter().collect::<Vec<_>>()
    })
    .expect("layer worker panicked")
}

/// A gradient with no buffer yet: the empty tensor. A layer is built with
/// these, so a model holds no gradient memory until something needs it
/// ([`grad_buf`]); `zero_grad` and byte counts need no special case.
fn no_grad() -> Tensor {
    Tensor::zeros([0])
}

/// `grad`, first allocated zero-filled at `param`'s shape if it has no
/// buffer yet: the one place a gradient is allocated. A layer's `backward`
/// calls it before it accumulates, and `visit_trainable_mut` before it
/// hands the gradient out, so every reader still sees a full-size gradient
/// that starts at zero.
fn grad_buf<'g>(grad: &'g mut Tensor, param: &Tensor) -> &'g mut Tensor {
    if grad.shape() != param.shape() {
        *grad = Tensor::zeros(param.shape().clone());
    }
    grad
}

/// Splits `0..n` into at most `PAR_THREADS` contiguous ranges.
fn ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = n.div_ceil(PAR_THREADS).max(1);
    (0..n).step_by(chunk).map(|s| s..(s + chunk).min(n)).collect()
}

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution over NCHW tensors, with optional grouping (depthwise when
/// `groups == in_channels`). Bias-free by default, as all five evaluation
/// architectures use conv+batch-norm pairs.
pub struct Conv2d {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Channel groups.
    pub groups: usize,
    /// Weight `[out, in/groups, k, k]`.
    pub weight: Tensor,
    /// Optional bias `[out]`.
    pub bias: Option<Tensor>,
    /// Whether this layer participates in training (mmlib layer granularity).
    pub trainable: bool,
    grad_weight: Tensor,
    grad_bias: Option<Tensor>,
    cache_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a conv layer with zeroed parameters (call an `Init` after, or
    /// load a state dict).
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        groups: usize,
        bias: bool,
    ) -> Self {
        assert!(in_channels.is_multiple_of(groups));
        let weight = Tensor::zeros([out_channels, in_channels / groups, kernel, kernel]);
        Conv2d::from_params(weight, bias.then(|| Tensor::zeros([out_channels])), stride, pad, groups)
    }

    /// Wraps given parameters: `weight` is `[out, in/groups, k, k]`, and
    /// `bias`, when present, is `[out]`.
    pub(crate) fn from_params(
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        pad: usize,
        groups: usize,
    ) -> Self {
        let (out_channels, cin_g, kernel, _) = dims4(&weight);
        assert!(out_channels.is_multiple_of(groups));
        Conv2d {
            in_channels: cin_g * groups,
            out_channels,
            kernel,
            stride,
            pad,
            groups,
            grad_weight: no_grad(),
            grad_bias: bias.as_ref().map(|_| no_grad()),
            weight,
            bias,
            trainable: true,
            cache_input: None,
        }
    }

    /// Initializes the weight (and zeroes the bias) with `init` and `rng`.
    pub fn init(mut self, init: Init, rng: &mut mmlib_tensor::Pcg32) -> Self {
        self.weight = init.materialize(self.weight.shape().clone(), rng);
        self
    }

    /// The shape of this layer's call on `h × w` images.
    fn geom(&self, h: usize, w: usize) -> ConvGeom {
        let (k, s, p, g) = (self.kernel, self.stride, self.pad, self.groups);
        ConvGeom {
            cin: self.in_channels,
            cout: self.out_channels,
            h,
            w,
            ho: conv_out(h, k, s, p),
            wo: conv_out(w, k, s, p),
            k,
            s,
            p,
            cin_g: self.in_channels / g,
            cout_g: self.out_channels / g,
        }
    }

    /// Forward pass; caches the input for backward.
    pub fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let (n, cin, h, w) = dims4(&x);
        assert_eq!(cin, self.in_channels, "conv input channels");
        let gm = self.geom(h, w);
        let ConvGeom { cout, ho, wo, k, cin_g, .. } = gm;
        let mut out = Tensor::zeros([n, cout, ho, wo]);

        let xd = x.data();
        let wt = gm.weight_out_minor(self.weight.data());
        let bias = self.bias.as_ref().map(Tensor::data);
        let work_per_image = cout * ho * wo * cin_g * k * k;

        // One output element is produced by exactly one accumulation loop,
        // so the forward result is identical across modes; parallel mode
        // only distributes images over threads.
        let (in_len, image_len) = (cin * h * w, cout * ho * wo);
        let compute_image = |ni: usize, od: &mut [f32]| {
            let xt = transpose(&xd[ni * in_len..(ni + 1) * in_len], cin);
            gm.forward_image(&xt, &wt, bias, od);
        };

        let od = out.data_mut();
        if ctx.mode == ExecMode::Parallel && n > 1 && work_per_image * n >= PAR_MIN_WORK {
            let slices: Vec<&mut [f32]> = od.chunks_mut(image_len).collect();
            crossbeam::scope(|sc| {
                for (ni, slice) in slices.into_iter().enumerate() {
                    let compute_image = &compute_image;
                    sc.spawn(move |_| compute_image(ni, slice));
                }
            })
            .expect("conv forward worker panicked");
        } else {
            for (ni, slice) in od.chunks_mut(image_len).enumerate() {
                compute_image(ni, slice);
            }
        }

        self.cache_input = Some(x);
        out
    }

    /// Backward pass: accumulates weight/bias grads, returns input grad.
    pub fn backward(&mut self, gout: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let x = self.cache_input.take().expect("conv backward before forward");
        let (n, cin, h, w) = dims4(&x);
        let gm = self.geom(h, w);
        let ConvGeom { cout, ho, wo, k, cin_g, .. } = gm;
        assert_eq!(dims4(&gout), (n, cout, ho, wo), "conv output gradient shape");
        let xd = x.data();
        let gd = gout.data();
        let (in_len, out_len) = (cin * h * w, cout * ho * wo);

        // --- weight gradient: reduction over images; parallel mode combines
        // per-image-chunk partials in completion order (non-deterministic).
        let wlen = self.weight.numel();
        let chunk_grad_into = |range: std::ops::Range<usize>, gw: &mut [f32]| {
            for ni in range {
                let xt = transpose(&xd[ni * in_len..(ni + 1) * in_len], cin);
                gm.weight_grad_image(&xt, &gd[ni * out_len..(ni + 1) * out_len], gw);
            }
        };

        let work = n * cout * cin_g * k * k * ho * wo;
        let grad_weight = grad_buf(&mut self.grad_weight, &self.weight).data_mut();
        if ctx.mode == ExecMode::Parallel && n > 1 && work >= PAR_MIN_WORK {
            let rs = ranges(n);
            let partials = parallel_partials(rs.len(), |i| {
                let mut gw = vec![0.0f32; wlen];
                chunk_grad_into(rs[i].clone(), &mut gw);
                gw
            });
            reduce_partials(grad_weight, partials, ctx.mode);
        } else {
            // Deterministic path: accumulate straight into the gradient
            // buffer — no partial allocations (page faults are expensive on
            // some hosts, and a ResNet-152 backward would otherwise allocate
            // a weight-sized scratch buffer per conv layer).
            chunk_grad_into(0..n, grad_weight);
        }

        // --- bias gradient
        if let (Some(b), Some(gb)) = (&self.bias, &mut self.grad_bias) {
            let gbd = grad_buf(gb, b).data_mut();
            for ni in 0..n {
                for co in 0..cout {
                    let base = ni * cout * ho * wo + co * ho * wo;
                    let mut acc = 0.0f32;
                    for i in 0..ho * wo {
                        acc += gd[base + i];
                    }
                    gbd[co] += acc;
                }
            }
        }

        // --- input gradient: each input element owned by one loop; parallel
        // mode distributes images.
        let mut gin = Tensor::zeros([n, cin, h, w]);
        let wt = gm.weight_in_minor(self.weight.data());
        let compute_gin = |ni: usize, gi: &mut [f32]| {
            gm.input_grad_image(&gd[ni * out_len..(ni + 1) * out_len], &wt, gi);
        };
        let gid = gin.data_mut();
        if ctx.mode == ExecMode::Parallel && n > 1 && work >= PAR_MIN_WORK {
            let slices: Vec<&mut [f32]> = gid.chunks_mut(in_len).collect();
            crossbeam::scope(|sc| {
                for (ni, slice) in slices.into_iter().enumerate() {
                    let compute_gin = &compute_gin;
                    sc.spawn(move |_| compute_gin(ni, slice));
                }
            })
            .expect("conv backward worker panicked");
        } else {
            for (ni, slice) in gid.chunks_mut(in_len).enumerate() {
                compute_gin(ni, slice);
            }
        }
        gin
    }

    pub(crate) fn visit_state<'s>(
        &'s self,
        prefix: &str,
        f: &mut dyn FnMut(String, &'s Tensor, EntryKind, bool),
    ) {
        f(format!("{prefix}.weight"), &self.weight, EntryKind::Parameter, self.trainable);
        if let Some(b) = &self.bias {
            f(format!("{prefix}.bias"), b, EntryKind::Parameter, self.trainable);
        }
    }

    pub(crate) fn visit_state_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, EntryKind),
    ) {
        f(format!("{prefix}.weight"), &mut self.weight, EntryKind::Parameter);
        if let Some(b) = &mut self.bias {
            f(format!("{prefix}.bias"), b, EntryKind::Parameter);
        }
    }

    pub(crate) fn visit_trainable_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, &mut Tensor),
    ) {
        if !self.trainable {
            return;
        }
        let gw = grad_buf(&mut self.grad_weight, &self.weight);
        f(format!("{prefix}.weight"), &mut self.weight, gw);
        if let (Some(b), Some(gb)) = (&mut self.bias, &mut self.grad_bias) {
            let gb = grad_buf(gb, b);
            f(format!("{prefix}.bias"), b, gb);
        }
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        if let Some(gb) = &mut self.grad_bias {
            gb.fill(0.0);
        }
    }

    pub(crate) fn grad_nbytes(&self) -> usize {
        self.grad_weight.nbytes() + self.grad_bias.as_ref().map_or(0, Tensor::nbytes)
    }
}

/// The shape of one convolution call, and its three per-image kernels.
///
/// The kernels vectorise across independent outputs — the output channels
/// of a group (forward), the input channels of a group (both gradients), or
/// every channel at once in a depthwise layer — and never across a
/// reduction: each output element adds the same terms, in the same order,
/// as the plain scalar loops over `NCHW` (the tests below check this bit for
/// bit). Images are read channel-minor (`[h][w][c]`, see [`transpose`])
/// so that those vectors are contiguous.
#[derive(Clone, Copy)]
struct ConvGeom {
    cin: usize,
    cout: usize,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
    k: usize,
    s: usize,
    p: usize,
    cin_g: usize,
    cout_g: usize,
}

impl ConvGeom {
    /// One input and one output channel per group: the kernels then run
    /// across all channels at once, as a group is one channel wide.
    fn depthwise(&self) -> bool {
        self.cin_g == 1 && self.cout_g == 1
    }

    /// The input coordinate that output coordinate `o` reads through tap
    /// `t` on an axis of length `len`, or `None` in the padding: padded taps
    /// are skipped, never added as `0·w`.
    fn tap(&self, o: usize, t: usize, len: usize) -> Option<usize> {
        (o * self.s + t).checked_sub(self.p).filter(|&i| i < len)
    }

    /// The taps of output position `(oh, ow)` that land in the image, in
    /// `(kh, kw)` order, as `(kh·k + kw, ih·w + iw)`.
    fn taps(self, oh: usize, ow: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..self.k).filter_map(move |kh| self.tap(oh, kh, self.h).map(|ih| (kh, ih))).flat_map(
            move |(kh, ih)| {
                (0..self.k).filter_map(move |kw| {
                    self.tap(ow, kw, self.w).map(|iw| (kh * self.k + kw, ih * self.w + iw))
                })
            },
        )
    }

    /// The output positions whose tap `(kh, kw)` lands in the image, in
    /// `(oh, ow)` order, as `(oh·wo + ow, ih·w + iw)`.
    fn positions(self, kh: usize, kw: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..self.ho).filter_map(move |oh| self.tap(oh, kh, self.h).map(|ih| (oh, ih))).flat_map(
            move |(oh, ih)| {
                (0..self.wo).filter_map(move |ow| {
                    self.tap(ow, kw, self.w).map(|iw| (oh * self.wo + ow, ih * self.w + iw))
                })
            },
        )
    }

    /// The weight `[cout][cin_g][k][k]` laid out `[cin_g][k][k][cout]`: one
    /// tap's weights are contiguous across output channels.
    fn weight_out_minor(&self, wd: &[f32]) -> Vec<f32> {
        let (kk, cin_g, cout) = (self.k * self.k, self.cin_g, self.cout);
        let mut wt = vec![0.0f32; wd.len()];
        for co in 0..cout {
            for ci in 0..cin_g {
                for t in 0..kk {
                    wt[(ci * kk + t) * cout + co] = wd[(co * cin_g + ci) * kk + t];
                }
            }
        }
        wt
    }

    /// The weight laid out `[cout][k][k][cin_g]`: one tap's weights are
    /// contiguous across a group's input channels. A depthwise layer's
    /// group is one channel wide, so it takes the `[k][k][c]` layout of
    /// [`ConvGeom::weight_out_minor`] instead.
    fn weight_in_minor(&self, wd: &[f32]) -> Vec<f32> {
        if self.depthwise() {
            return self.weight_out_minor(wd);
        }
        let (kk, cin_g) = (self.k * self.k, self.cin_g);
        let mut wt = vec![0.0f32; wd.len()];
        for co in 0..self.cout {
            for ci in 0..cin_g {
                for t in 0..kk {
                    wt[(co * kk + t) * cin_g + ci] = wd[(co * cin_g + ci) * kk + t];
                }
            }
        }
        wt
    }

    /// Forward of one image into `od` (`[cout][ho][wo]`): `xt` is the image
    /// channel-minor, `wt` from [`ConvGeom::weight_out_minor`]. Each output
    /// sums its taps from zero in `(ci, kh, kw)` order, then adds the bias.
    fn forward_image(&self, xt: &[f32], wt: &[f32], bias: Option<&[f32]>, od: &mut [f32]) {
        let &ConvGeom { cin, cout, ho, wo, k, cin_g, cout_g, .. } = self;
        let mut acc = vec![0.0f32; cout];
        for oh in 0..ho {
            for ow in 0..wo {
                acc.fill(0.0);
                if self.depthwise() {
                    for (t, pi) in self.taps(oh, ow) {
                        let xs = &xt[pi * cin..][..cin];
                        let ws = &wt[t * cout..][..cout];
                        for ((a, &xv), &wv) in acc.iter_mut().zip(xs).zip(ws) {
                            *a += xv * wv;
                        }
                    }
                } else {
                    for (grp, acc) in acc.chunks_exact_mut(cout_g).enumerate() {
                        for ci in 0..cin_g {
                            for (t, pi) in self.taps(oh, ow) {
                                let xv = xt[pi * cin + grp * cin_g + ci];
                                let ws = &wt[(ci * k * k + t) * cout + grp * cout_g..][..cout_g];
                                for (a, &wv) in acc.iter_mut().zip(ws) {
                                    *a += xv * wv;
                                }
                            }
                        }
                    }
                }
                for (co, a) in acc.iter().enumerate() {
                    od[co * ho * wo + oh * wo + ow] = a + bias.map_or(0.0, |b| b[co]);
                }
            }
        }
    }

    /// Adds one image's weight gradient into `gw` (`[cout][cin_g][k][k]`):
    /// `xt` is the image channel-minor, `gd` its `[cout][ho][wo]` output
    /// gradient. Each weight sums its positions from zero in `(oh, ow)`
    /// order, and that sum is added into `gw`.
    fn weight_grad_image(&self, xt: &[f32], gd: &[f32], gw: &mut [f32]) {
        let &ConvGeom { cin, cout, ho, wo, k, cin_g, cout_g, .. } = self;
        let kk = k * k;
        if self.depthwise() {
            let gt = transpose(gd, cout);
            let mut acc = vec![0.0f32; cin];
            for kh in 0..k {
                for kw in 0..k {
                    acc.fill(0.0);
                    for (po, pi) in self.positions(kh, kw) {
                        let xs = &xt[pi * cin..][..cin];
                        let gs = &gt[po * cout..][..cout];
                        for ((a, &xv), &gv) in acc.iter_mut().zip(xs).zip(gs) {
                            *a += xv * gv;
                        }
                    }
                    for (c, a) in acc.iter().enumerate() {
                        gw[c * kk + kh * k + kw] += a;
                    }
                }
            }
            return;
        }
        let mut acc = vec![0.0f32; cin_g];
        for (co, g_co) in gd.chunks_exact(ho * wo).enumerate() {
            let grp = co / cout_g;
            for kh in 0..k {
                for kw in 0..k {
                    acc.fill(0.0);
                    for (po, pi) in self.positions(kh, kw) {
                        let gv = g_co[po];
                        let xs = &xt[pi * cin + grp * cin_g..][..cin_g];
                        for (a, &xv) in acc.iter_mut().zip(xs) {
                            *a += xv * gv;
                        }
                    }
                    for (ci, a) in acc.iter().enumerate() {
                        gw[(co * cin_g + ci) * kk + kh * k + kw] += a;
                    }
                }
            }
        }
    }

    /// One image's input gradient into `gi` (`[cin][h][w]`): `gd` is its
    /// `[cout][ho][wo]` output gradient, `wt` from
    /// [`ConvGeom::weight_in_minor`]. Each input element sums its terms from
    /// zero in `(co, oh, ow)` order, skipping zero upstream gradients.
    fn input_grad_image(&self, gd: &[f32], wt: &[f32], gi: &mut [f32]) {
        let &ConvGeom { cin, cout, ho, wo, k, cin_g, cout_g, .. } = self;
        let mut git = vec![0.0f32; gi.len()];
        if self.depthwise() {
            let gt = transpose(gd, cout);
            for oh in 0..ho {
                for ow in 0..wo {
                    let gs = &gt[(oh * wo + ow) * cout..][..cout];
                    for (t, pi) in self.taps(oh, ow) {
                        let dst = &mut git[pi * cin..][..cin];
                        let ws = &wt[t * cout..][..cout];
                        for ((d, &gv), &wv) in dst.iter_mut().zip(gs).zip(ws) {
                            // x + -0.0 == x for every x, so adding -0.0 is
                            // the scalar loop's skip of a zero gradient.
                            *d += if gv == 0.0 { -0.0 } else { gv * wv };
                        }
                    }
                }
            }
        } else {
            for (co, g_co) in gd.chunks_exact(ho * wo).enumerate() {
                let grp = co / cout_g;
                for oh in 0..ho {
                    for ow in 0..wo {
                        let gval = g_co[oh * wo + ow];
                        if gval == 0.0 {
                            continue;
                        }
                        for (t, pi) in self.taps(oh, ow) {
                            let dst = &mut git[pi * cin + grp * cin_g..][..cin_g];
                            let ws = &wt[(co * k * k + t) * cin_g..][..cin_g];
                            for (d, &wv) in dst.iter_mut().zip(ws) {
                                *d += gval * wv;
                            }
                        }
                    }
                }
            }
        }
        gi.copy_from_slice(&transpose(&git, self.h * self.w));
    }
}

/// `[rows][cols]` → `[cols][rows]`. An `NCHW` image becomes channel-minor
/// with `rows` = its channels, and channel-major again with `rows` = `h·w`.
fn transpose(src: &[f32], rows: usize) -> Vec<f32> {
    let cols = src.len() / rows;
    let mut dst = vec![0.0f32; src.len()];
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
    dst
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

/// 2-D batch normalization with running statistics.
///
/// In training mode the per-channel mean/variance are *reductions over the
/// batch*: in parallel execution their partials combine in completion order,
/// making training non-deterministic — the dominant divergence source the
/// probing tool observes.
pub struct BatchNorm2d {
    /// Channel count.
    pub channels: usize,
    /// Scale γ.
    pub weight: Tensor,
    /// Shift β.
    pub bias: Tensor,
    /// Running mean (buffer).
    pub running_mean: Tensor,
    /// Running variance (buffer).
    pub running_var: Tensor,
    /// Exponential-average momentum (PyTorch default 0.1).
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Whether this layer participates in training.
    pub trainable: bool,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cache: Option<BnCache>,
}

struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    /// True when the forward used batch statistics (trainable layer in
    /// training mode); selects the backward formula.
    batch_stats: bool,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with γ=1, β=0, running stats (0, 1).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d::from_params(
            Tensor::ones([channels]),
            Tensor::zeros([channels]),
            Tensor::zeros([channels]),
            Tensor::ones([channels]),
        )
    }

    /// Wraps given state: γ, β and the running statistics, each `[C]`.
    pub(crate) fn from_params(
        weight: Tensor,
        bias: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
    ) -> Self {
        let channels = weight.numel();
        BatchNorm2d {
            channels,
            weight,
            bias,
            running_mean,
            running_var,
            momentum: 0.1,
            eps: 1e-5,
            trainable: true,
            grad_weight: no_grad(),
            grad_bias: no_grad(),
            cache: None,
        }
    }

    /// Forward pass (batch stats + running update in training mode).
    pub fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let (n, c, h, w) = dims4(&x);
        assert_eq!(c, self.channels, "bn channels");
        let count = (n * h * w) as f32;
        let xd = x.data();
        let plane = h * w;

        // A frozen batch-norm layer keeps using its running statistics and
        // does not update them, even in training mode. This matches the
        // partial-update model relation in the paper: when only the
        // classifier is trainable, *no other layer's state changes*, which is
        // what makes the parameter update a single layer.
        let use_batch_stats = ctx.training && self.trainable;
        let (mean, var) = if use_batch_stats {
            // Per-channel sums reduced over images.
            let chunk_sums = |range: std::ops::Range<usize>| -> Vec<f32> {
                let mut sums = vec![0.0f32; c];
                for ni in range {
                    for ci in 0..c {
                        let base = ni * c * plane + ci * plane;
                        let mut acc = 0.0f32;
                        for i in 0..plane {
                            acc += xd[base + i];
                        }
                        sums[ci] += acc;
                    }
                }
                sums
            };
            let parallel = ctx.mode == ExecMode::Parallel && n > 1 && n * c * plane >= PAR_MIN_WORK;
            let mut sums = vec![0.0f32; c];
            let partials = if parallel {
                let rs = ranges(n);
                parallel_partials(rs.len(), |i| chunk_sums(rs[i].clone()))
            } else {
                vec![chunk_sums(0..n)]
            };
            reduce_partials(&mut sums, partials, ctx.mode);
            let mean: Vec<f32> = sums.iter().map(|s| s / count).collect();

            let mean_ref = &mean;
            let chunk_sq = |range: std::ops::Range<usize>| -> Vec<f32> {
                let mut sums = vec![0.0f32; c];
                for ni in range {
                    for ci in 0..c {
                        let base = ni * c * plane + ci * plane;
                        let m = mean_ref[ci];
                        let mut acc = 0.0f32;
                        for i in 0..plane {
                            let d = xd[base + i] - m;
                            acc += d * d;
                        }
                        sums[ci] += acc;
                    }
                }
                sums
            };
            let mut sq = vec![0.0f32; c];
            let partials = if parallel {
                let rs = ranges(n);
                parallel_partials(rs.len(), |i| chunk_sq(rs[i].clone()))
            } else {
                vec![chunk_sq(0..n)]
            };
            reduce_partials(&mut sq, partials, ctx.mode);
            let var: Vec<f32> = sq.iter().map(|s| s / count).collect();

            // Update running stats (unbiased variance, PyTorch convention).
            let unbias = count / (count - 1.0).max(1.0);
            let rm = self.running_mean.data_mut();
            for (r, m) in rm.iter_mut().zip(&mean) {
                *r = (1.0 - self.momentum) * *r + self.momentum * m;
            }
            let rv = self.running_var.data_mut();
            for (r, v) in rv.iter_mut().zip(&var) {
                *r = (1.0 - self.momentum) * *r + self.momentum * (v * unbias);
            }
            (mean, var)
        } else {
            (self.running_mean.data().to_vec(), self.running_var.data().to_vec())
        };

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut xhat = Tensor::zeros([n, c, h, w]);
        let mut out = Tensor::zeros([n, c, h, w]);
        {
            let xh = xhat.data_mut();
            let od = out.data_mut();
            let g = self.weight.data();
            let b = self.bias.data();
            for ni in 0..n {
                for ci in 0..c {
                    let base = ni * c * plane + ci * plane;
                    let (m, is) = (mean[ci], inv_std[ci]);
                    for i in 0..plane {
                        let v = (xd[base + i] - m) * is;
                        xh[base + i] = v;
                        od[base + i] = g[ci] * v + b[ci];
                    }
                }
            }
        }
        if ctx.training {
            self.cache = Some(BnCache { xhat, inv_std, batch_stats: use_batch_stats });
        }
        out
    }

    /// Backward pass (training-mode batch-norm gradient).
    pub fn backward(&mut self, gout: Tensor, _ctx: &mut Ctx<'_>) -> Tensor {
        let cache = self.cache.take().expect("bn backward before forward (training)");
        let (n, c, h, w) = dims4(&gout);
        let plane = h * w;
        let count = (n * plane) as f32;
        let gd = gout.data();
        let xh = cache.xhat.data();

        // dgamma, dbeta
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for ni in 0..n {
            for ci in 0..c {
                let base = ni * c * plane + ci * plane;
                let mut dg = 0.0f32;
                let mut db = 0.0f32;
                for i in 0..plane {
                    dg += gd[base + i] * xh[base + i];
                    db += gd[base + i];
                }
                dgamma[ci] += dg;
                dbeta[ci] += db;
            }
        }
        let gw = grad_buf(&mut self.grad_weight, &self.weight).data_mut();
        for (a, v) in gw.iter_mut().zip(&dgamma) {
            *a += v;
        }
        let gb = grad_buf(&mut self.grad_bias, &self.bias).data_mut();
        for (a, v) in gb.iter_mut().zip(&dbeta) {
            *a += v;
        }

        // Batch-stats path: dx = (γ·inv_std)·(g − dbeta/count − xhat·dgamma/count).
        // Running-stats path (frozen layer): stats are constants, so
        // dx = (γ·inv_std)·g.
        let gw = self.weight.data();
        let mut gin = Tensor::zeros([n, c, plane / w, w]);
        {
            let gi = gin.data_mut();
            for ni in 0..n {
                for ci in 0..c {
                    let base = ni * c * plane + ci * plane;
                    let coef = gw[ci] * cache.inv_std[ci];
                    if cache.batch_stats {
                        let mdb = dbeta[ci] / count;
                        let mdg = dgamma[ci] / count;
                        for i in 0..plane {
                            gi[base + i] = coef * (gd[base + i] - mdb - xh[base + i] * mdg);
                        }
                    } else {
                        for i in 0..plane {
                            gi[base + i] = coef * gd[base + i];
                        }
                    }
                }
            }
        }
        gin
    }

    pub(crate) fn visit_state<'s>(
        &'s self,
        prefix: &str,
        f: &mut dyn FnMut(String, &'s Tensor, EntryKind, bool),
    ) {
        f(format!("{prefix}.weight"), &self.weight, EntryKind::Parameter, self.trainable);
        f(format!("{prefix}.bias"), &self.bias, EntryKind::Parameter, self.trainable);
        f(format!("{prefix}.running_mean"), &self.running_mean, EntryKind::Buffer, self.trainable);
        f(format!("{prefix}.running_var"), &self.running_var, EntryKind::Buffer, self.trainable);
    }

    pub(crate) fn visit_state_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, EntryKind),
    ) {
        f(format!("{prefix}.weight"), &mut self.weight, EntryKind::Parameter);
        f(format!("{prefix}.bias"), &mut self.bias, EntryKind::Parameter);
        f(format!("{prefix}.running_mean"), &mut self.running_mean, EntryKind::Buffer);
        f(format!("{prefix}.running_var"), &mut self.running_var, EntryKind::Buffer);
    }

    pub(crate) fn visit_trainable_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, &mut Tensor),
    ) {
        if !self.trainable {
            return;
        }
        let gw = grad_buf(&mut self.grad_weight, &self.weight);
        f(format!("{prefix}.weight"), &mut self.weight, gw);
        let gb = grad_buf(&mut self.grad_bias, &self.bias);
        f(format!("{prefix}.bias"), &mut self.bias, gb);
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    pub(crate) fn grad_nbytes(&self) -> usize {
        self.grad_weight.nbytes() + self.grad_bias.nbytes()
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// `y[i, o] = Σ_f w[o, f]·x[i, f]` for every row `i` of `x` (`[n][fin]`),
/// each sum taken from zero in `f` order exactly as `ops::dot_serial` takes
/// it. Eight weight rows run at a time with independent accumulators, so
/// their add chains overlap, and each block of rows serves every input row
/// while it is in cache.
fn matmul_serial_rows(wd: &[f32], xd: &[f32], fin: usize, fout: usize, yd: &mut [f32]) {
    const ROWS: usize = 8;
    for (b, block) in wd.chunks(ROWS * fin.max(1)).enumerate() {
        for (x, y) in xd.chunks_exact(fin).zip(yd.chunks_exact_mut(fout)) {
            let y = &mut y[b * ROWS..b * ROWS + block.len() / fin];
            if y.len() < ROWS {
                for (yo, row) in y.iter_mut().zip(block.chunks_exact(fin)) {
                    *yo = mmlib_tensor::ops::dot_serial(row, x);
                }
                continue;
            }
            let rows: [&[f32]; ROWS] = std::array::from_fn(|r| &block[r * fin..(r + 1) * fin]);
            let mut acc = [0.0f32; ROWS];
            for (f, &xv) in x.iter().enumerate() {
                for r in 0..ROWS {
                    acc[r] += rows[r][f] * xv;
                }
            }
            y.copy_from_slice(&acc);
        }
    }
}

/// Fully-connected layer: `y = W x + b` over `[N, in]` inputs.
pub struct Linear {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Weight `[out, in]`.
    pub weight: Tensor,
    /// Bias `[out]`.
    pub bias: Tensor,
    /// Whether this layer participates in training.
    pub trainable: bool,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cache_input: Option<Tensor>,
}

impl Linear {
    /// Creates a zero-initialized linear layer.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        Linear::from_params(
            Tensor::zeros([out_features, in_features]),
            Tensor::zeros([out_features]),
        )
    }

    /// Wraps given parameters: `weight` is `[out, in]`, `bias` is `[out]`.
    pub(crate) fn from_params(weight: Tensor, bias: Tensor) -> Self {
        let (out_features, in_features) = (weight.shape().dim(0), weight.shape().dim(1));
        Linear {
            in_features,
            out_features,
            grad_weight: no_grad(),
            grad_bias: no_grad(),
            weight,
            bias,
            trainable: true,
            cache_input: None,
        }
    }

    /// Initializes weight and bias with the given rules.
    pub fn init(mut self, w: Init, b: Init, rng: &mut mmlib_tensor::Pcg32) -> Self {
        self.weight = w.materialize([self.out_features, self.in_features], rng);
        self.bias = b.materialize([self.out_features], rng);
        self
    }

    /// Forward pass over `[N, in]`.
    pub fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let d = x.shape().dims();
        assert_eq!(d.len(), 2, "linear expects [N, F]");
        let (n, fin) = (d[0], d[1]);
        assert_eq!(fin, self.in_features);
        let mut out = Tensor::zeros([n, self.out_features]);
        {
            let od = out.data_mut();
            let xd = x.data();
            let bd = self.bias.data();
            let fout = self.out_features;
            match ctx.mode {
                ExecMode::Deterministic => matmul_serial_rows(self.weight.data(), xd, fin, fout, od),
                ExecMode::Parallel => {
                    for ni in 0..n {
                        let row_in = &xd[ni * fin..(ni + 1) * fin];
                        let row_out = mmlib_tensor::ops::matvec(&self.weight, row_in, ctx.mode)
                            .expect("linear shapes checked above");
                        od[ni * fout..(ni + 1) * fout].copy_from_slice(&row_out);
                    }
                }
            }
            for (y, b) in od.iter_mut().zip(bd.iter().cycle()) {
                *y += b;
            }
        }
        self.cache_input = Some(x);
        out
    }

    /// Backward pass.
    pub fn backward(&mut self, gout: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        let x = self.cache_input.take().expect("linear backward before forward");
        let n = x.shape().dim(0);
        let (fin, fout) = (self.in_features, self.out_features);
        let xd = x.data();
        let gd = gout.data();

        // Weight grad: reduce over images, completion-order in parallel mode.
        let chunk_grad_into = |range: std::ops::Range<usize>, gw: &mut [f32]| {
            for ni in range {
                for o in 0..fout {
                    let gval = gd[ni * fout + o];
                    if gval == 0.0 {
                        continue;
                    }
                    let base = o * fin;
                    let xrow = &xd[ni * fin..(ni + 1) * fin];
                    for (dst, xv) in gw[base..base + fin].iter_mut().zip(xrow) {
                        *dst += gval * xv;
                    }
                }
            }
        };
        let grad_weight = grad_buf(&mut self.grad_weight, &self.weight).data_mut();
        if ctx.mode == ExecMode::Parallel && n > 1 && n * fout * fin >= PAR_MIN_WORK {
            let rs = ranges(n);
            let partials = parallel_partials(rs.len(), |i| {
                let mut gw = vec![0.0f32; fout * fin];
                chunk_grad_into(rs[i].clone(), &mut gw);
                gw
            });
            reduce_partials(grad_weight, partials, ctx.mode);
        } else {
            chunk_grad_into(0..n, grad_weight);
        }

        // Bias grad.
        {
            let gb = grad_buf(&mut self.grad_bias, &self.bias).data_mut();
            for ni in 0..n {
                for o in 0..fout {
                    gb[o] += gd[ni * fout + o];
                }
            }
        }

        // Input grad: gin[n, f] = Σ_o g[n, o]·W[o, f].
        let mut gin = Tensor::zeros([n, fin]);
        {
            let gi = gin.data_mut();
            let wd = self.weight.data();
            for ni in 0..n {
                for o in 0..fout {
                    let gval = gd[ni * fout + o];
                    if gval == 0.0 {
                        continue;
                    }
                    let wrow = &wd[o * fin..(o + 1) * fin];
                    for (dst, wv) in gi[ni * fin..(ni + 1) * fin].iter_mut().zip(wrow) {
                        *dst += gval * wv;
                    }
                }
            }
        }
        gin
    }

    pub(crate) fn visit_state<'s>(
        &'s self,
        prefix: &str,
        f: &mut dyn FnMut(String, &'s Tensor, EntryKind, bool),
    ) {
        f(format!("{prefix}.weight"), &self.weight, EntryKind::Parameter, self.trainable);
        f(format!("{prefix}.bias"), &self.bias, EntryKind::Parameter, self.trainable);
    }

    pub(crate) fn visit_state_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, EntryKind),
    ) {
        f(format!("{prefix}.weight"), &mut self.weight, EntryKind::Parameter);
        f(format!("{prefix}.bias"), &mut self.bias, EntryKind::Parameter);
    }

    pub(crate) fn visit_trainable_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, &mut Tensor),
    ) {
        if !self.trainable {
            return;
        }
        let gw = grad_buf(&mut self.grad_weight, &self.weight);
        f(format!("{prefix}.weight"), &mut self.weight, gw);
        let gb = grad_buf(&mut self.grad_bias, &self.bias);
        f(format!("{prefix}.bias"), &mut self.bias, gb);
    }

    pub(crate) fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    pub(crate) fn grad_nbytes(&self) -> usize {
        self.grad_weight.nbytes() + self.grad_bias.nbytes()
    }
}

/// The scalar `Conv2d` loops and the serial `Linear` forward that the
/// kernels above replaced, kept verbatim as their bit-for-bit oracle.
#[cfg(test)]
mod reference {
    use mmlib_tensor::{ExecMode, Tensor};

    use super::conv_out;
    use crate::module::dims4;

    /// Forward of every image, `[n][cout][ho][wo]`.
    pub(super) fn conv_forward(
        x: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        s: usize,
        p: usize,
        g: usize,
    ) -> Vec<f32> {
        let (n, cin, h, w) = dims4(x);
        let (cout, _, k, _) = dims4(weight);
        let (ho, wo) = (conv_out(h, k, s, p), conv_out(w, k, s, p));
        let (cin_g, cout_g) = (cin / g, cout / g);
        let xd = x.data();
        let wd = weight.data();
        let mut out = vec![0.0f32; n * cout * ho * wo];

        let compute_image = |ni: usize, od: &mut [f32]| {
            for co in 0..cout {
                let grp = co / cout_g;
                let b = bias.map_or(0.0, |b| b.data()[co]);
                for oh in 0..ho {
                    for ow in 0..wo {
                        let mut acc = 0.0f32;
                        for ci in 0..cin_g {
                            let ci_g = grp * cin_g + ci;
                            let xbase = ni * cin * h * w + ci_g * h * w;
                            let wbase = co * cin_g * k * k + ci * k * k;
                            for kh in 0..k {
                                let ih = oh * s + kh;
                                if ih < p || ih - p >= h {
                                    continue;
                                }
                                let ih = ih - p;
                                for kw in 0..k {
                                    let iw = ow * s + kw;
                                    if iw < p || iw - p >= w {
                                        continue;
                                    }
                                    let iw = iw - p;
                                    acc += xd[xbase + ih * w + iw] * wd[wbase + kh * k + kw];
                                }
                            }
                        }
                        od[co * ho * wo + oh * wo + ow] = acc + b;
                    }
                }
            }
        };

        let image_len = cout * ho * wo;
        for ni in 0..n {
            compute_image(ni, &mut out[ni * image_len..(ni + 1) * image_len]);
        }
        out
    }

    /// Weight gradient `[cout][cin_g][k][k]`, bias gradient `[cout]` and
    /// input gradient `[n][cin][h][w]` of `gout` at input `x`.
    pub(super) fn conv_backward(
        x: &Tensor,
        weight: &Tensor,
        gout: &Tensor,
        s: usize,
        p: usize,
        g: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let (n, cin, h, w) = dims4(x);
        let (_, cout, ho, wo) = dims4(gout);
        let k = weight.shape().dim(2);
        let (cin_g, cout_g) = (cin / g, cout / g);
        let xd = x.data();
        let gd = gout.data();
        let wd = weight.data();

        let chunk_grad_into = |range: std::ops::Range<usize>, gw: &mut [f32]| {
            for ni in range {
                for co in 0..cout {
                    let grp = co / cout_g;
                    for ci in 0..cin_g {
                        let ci_g = grp * cin_g + ci;
                        let xbase = ni * cin * h * w + ci_g * h * w;
                        let wbase = co * cin_g * k * k + ci * k * k;
                        for kh in 0..k {
                            for kw in 0..k {
                                let mut acc = 0.0f32;
                                for oh in 0..ho {
                                    let ih = oh * s + kh;
                                    if ih < p || ih - p >= h {
                                        continue;
                                    }
                                    let ih = ih - p;
                                    for ow in 0..wo {
                                        let iw = ow * s + kw;
                                        if iw < p || iw - p >= w {
                                            continue;
                                        }
                                        let iw = iw - p;
                                        acc += xd[xbase + ih * w + iw]
                                            * gd[ni * cout * ho * wo + co * ho * wo + oh * wo + ow];
                                    }
                                }
                                gw[wbase + kh * k + kw] += acc;
                            }
                        }
                    }
                }
            }
        };
        let mut grad_weight = vec![0.0f32; weight.numel()];
        chunk_grad_into(0..n, &mut grad_weight);

        let mut gbd = vec![0.0f32; cout];
        for ni in 0..n {
            for co in 0..cout {
                let base = ni * cout * ho * wo + co * ho * wo;
                let mut acc = 0.0f32;
                for i in 0..ho * wo {
                    acc += gd[base + i];
                }
                gbd[co] += acc;
            }
        }

        let mut gin = vec![0.0f32; n * cin * h * w];
        let compute_gin = |ni: usize, gi: &mut [f32]| {
            for co in 0..cout {
                let grp = co / cout_g;
                for oh in 0..ho {
                    for ow in 0..wo {
                        let gval = gd[ni * cout * ho * wo + co * ho * wo + oh * wo + ow];
                        if gval == 0.0 {
                            continue;
                        }
                        for ci in 0..cin_g {
                            let ci_g = grp * cin_g + ci;
                            let wbase = co * cin_g * k * k + ci * k * k;
                            for kh in 0..k {
                                let ih = oh * s + kh;
                                if ih < p || ih - p >= h {
                                    continue;
                                }
                                let ih = ih - p;
                                for kw in 0..k {
                                    let iw = ow * s + kw;
                                    if iw < p || iw - p >= w {
                                        continue;
                                    }
                                    let iw = iw - p;
                                    gi[ci_g * h * w + ih * w + iw] += gval * wd[wbase + kh * k + kw];
                                }
                            }
                        }
                    }
                }
            }
        };
        let image_len = cin * h * w;
        for ni in 0..n {
            compute_gin(ni, &mut gin[ni * image_len..(ni + 1) * image_len]);
        }
        (grad_weight, gbd, gin)
    }

    /// `Linear` forward, `[n][out]`: one `ops::matvec` per image.
    pub(super) fn linear_forward(x: &Tensor, weight: &Tensor, bias: &Tensor, mode: ExecMode) -> Vec<f32> {
        let (n, fin) = (x.shape().dim(0), x.shape().dim(1));
        let out_features = weight.shape().dim(0);
        let mut od = vec![0.0f32; n * out_features];
        let xd = x.data();
        let bd = bias.data();
        for ni in 0..n {
            let row_in = &xd[ni * fin..(ni + 1) * fin];
            let row_out =
                mmlib_tensor::ops::matvec(weight, row_in, mode).expect("linear shapes checked above");
            for (o, (y, b)) in row_out.iter().zip(bd).enumerate() {
                od[ni * out_features + o] = y + b;
            }
        }
        od
    }
}

#[cfg(test)]
mod tests {
    use mmlib_tensor::{ExecMode, Pcg32, Tensor};
    use proptest::prelude::*;

    use super::{reference, Conv2d, Linear};
    use crate::module::Ctx;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Values in [-1, 1) with exact `0.0` and `-0.0` mixed in.
    fn values(rng: &mut Pcg32, shape: &[usize]) -> Tensor {
        let data = (0..shape.iter().product())
            .map(|_| match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.uniform(-1.0, 1.0),
            })
            .collect();
        Tensor::from_vec(shape.to_vec(), data).unwrap()
    }

    const MODES: [ExecMode; 2] = [ExecMode::Deterministic, ExecMode::Parallel];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Forward output, weight and bias gradients and input gradient of
        /// every layer kind equal the scalar loops' bit for bit. Parallel
        /// mode runs the same per-image kernels; only its weight-gradient
        /// combine (completion order) is exempt.
        #[test]
        fn conv_kernels_match_the_scalar_loops_bit_for_bit(
            kind in 0usize..3,
            ki in 0usize..4,
            stride in 1usize..=2,
            pad_pick in 0usize..4,
            h in 1usize..12,
            w in 1usize..12,
            n in 1usize..3,
            ca in 1usize..5,
            cb in 1usize..5,
            with_bias in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let k = [1, 3, 5, 7][ki];
            let pad = pad_pick % (k / 2 + 1);
            let (h, w) = (h.max(k - 2 * pad), w.max(k - 2 * pad));
            let (cin, cout, groups) = match kind {
                0 => (ca, cb, 1),
                1 => (2 * ca, 2 * cb, 2),
                _ => (ca + cb, ca + cb, ca + cb),
            };
            let mut rng = Pcg32::seeded(seed);
            let weight = values(&mut rng, &[cout, cin / groups, k, k]);
            let bias = with_bias.then(|| values(&mut rng, &[cout]));
            let x = values(&mut rng, &[n, cin, h, w]);
            let (ho, wo) = (super::conv_out(h, k, stride, pad), super::conv_out(w, k, stride, pad));
            let gout = values(&mut rng, &[n, cout, ho, wo]);

            let want_out = reference::conv_forward(&x, &weight, bias.as_ref(), stride, pad, groups);
            let (want_gw, want_gb, want_gin) =
                reference::conv_backward(&x, &weight, &gout, stride, pad, groups);

            for mode in MODES {
                let mut layer = Conv2d::from_params(weight.clone(), bias.clone(), stride, pad, groups);
                let mut ctx_rng = Pcg32::seeded(0);
                let mut ctx = Ctx::train(&mut ctx_rng, mode);
                let out = layer.forward(x.clone(), &mut ctx);
                let gin = layer.backward(gout.clone(), &mut ctx);
                prop_assert_eq!(bits(out.data()), bits(&want_out), "forward, {:?}", mode);
                prop_assert_eq!(bits(gin.data()), bits(&want_gin), "input grad, {:?}", mode);
                if mode == ExecMode::Deterministic {
                    prop_assert_eq!(bits(layer.grad_weight.data()), bits(&want_gw), "weight grad");
                    if let Some(gb) = &layer.grad_bias {
                        prop_assert_eq!(bits(gb.data()), bits(&want_gb), "bias grad");
                    }
                }
            }
        }

        /// `Linear` forward equals one `ops::matvec` per image, bit for bit.
        #[test]
        fn linear_forward_matches_matvec_bit_for_bit(
            n in 1usize..4,
            fin in 1usize..40,
            fout in 1usize..40,
            seed in any::<u64>(),
        ) {
            let mut rng = Pcg32::seeded(seed);
            let weight = values(&mut rng, &[fout, fin]);
            let bias = values(&mut rng, &[fout]);
            let x = values(&mut rng, &[n, fin]);
            for mode in MODES {
                let mut layer = Linear::from_params(weight.clone(), bias.clone());
                let mut ctx_rng = Pcg32::seeded(0);
                let out = layer.forward(x.clone(), &mut Ctx::train(&mut ctx_rng, mode));
                let want = reference::linear_forward(&x, &weight, &bias, mode);
                prop_assert_eq!(bits(out.data()), bits(&want), "{:?}", mode);
            }
        }
    }
}
