//! The module tree: composition, forward/backward, and state visitors.

use mmlib_tensor::{ExecMode, Pcg32, Tensor};

use crate::common::{Dropout, Flatten, GlobalAvgPool, MaxPool2d, ReLU, ReLU6};
use crate::layers::{BatchNorm2d, Conv2d, Linear};

/// A tap receiving every leaf module's forward output, with its path —
/// the hook the probing tool (paper §2.4) uses to compare intermediate
/// tensors layer-wise across executions.
pub struct ForwardTap<'t> {
    path: Vec<String>,
    sink: &'t mut dyn FnMut(&str, &Tensor),
}

impl<'t> ForwardTap<'t> {
    /// Creates a tap that feeds `(layer_path, output)` pairs into `sink`.
    pub fn new(sink: &'t mut dyn FnMut(&str, &Tensor)) -> Self {
        ForwardTap { path: Vec::new(), sink }
    }

    fn record(&mut self, leaf: &str, tensor: &Tensor) {
        let mut full = self.path.join(".");
        if !full.is_empty() && !leaf.is_empty() {
            full.push('.');
        }
        full.push_str(leaf);
        (self.sink)(&full, tensor);
    }
}

/// Execution context threaded through forward/backward.
pub struct Ctx<'a> {
    /// Deterministic (serial) or parallel (reduction-order-varying) kernels.
    pub mode: ExecMode,
    /// Training mode: batch-norm uses batch statistics, dropout is active.
    pub training: bool,
    /// PRNG for intentional randomness (dropout masks). Always seeded by the
    /// caller; §2.3 of the paper requires all randomness to be seedable.
    pub rng: &'a mut Pcg32,
    /// Optional probe tap receiving every leaf's forward output.
    pub tap: Option<ForwardTap<'a>>,
}

impl<'a> Ctx<'a> {
    /// A context for reproducible training.
    pub fn train(rng: &'a mut Pcg32, mode: ExecMode) -> Self {
        Ctx { mode, training: true, rng, tap: None }
    }

    /// A context for inference.
    pub fn eval(rng: &'a mut Pcg32, mode: ExecMode) -> Self {
        Ctx { mode, training: false, rng, tap: None }
    }

    /// Attaches a forward tap (see [`ForwardTap`]).
    pub fn with_tap(mut self, tap: ForwardTap<'a>) -> Self {
        self.tap = Some(tap);
        self
    }

    fn tap_record(&mut self, leaf: &str, tensor: &Tensor) {
        if let Some(tap) = &mut self.tap {
            tap.record(leaf, tensor);
        }
    }

    fn tap_push(&mut self, segment: &str) {
        if let Some(tap) = &mut self.tap {
            tap.path.push(segment.to_string());
        }
    }

    fn tap_pop(&mut self) {
        if let Some(tap) = &mut self.tap {
            tap.path.pop();
        }
    }
}

/// One entry of a model's state dict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A learned parameter (participates in gradient descent).
    Parameter,
    /// A buffer (batch-norm running statistics): part of the exact model
    /// state that must be recovered, but not a gradient-descent parameter.
    Buffer,
}

/// A composable network module.
///
/// Leaf variants own parameters and caches; composite variants define the
/// dataflow (sequence, residual sum, channel-concatenated branches). The
/// tree is walked with string paths (`"layer1.0.conv1"`) matching the
/// torchvision naming style, which become mmlib's layer identifiers.
pub enum Module {
    /// 2-D convolution (optionally grouped / depthwise).
    Conv2d(Conv2d),
    /// 2-D batch normalization.
    BatchNorm2d(BatchNorm2d),
    /// Fully-connected layer.
    Linear(Linear),
    /// Rectified linear unit.
    ReLU(ReLU),
    /// ReLU clipped at 6 (MobileNetV2).
    ReLU6(ReLU6),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Global average pooling to `[N, C]`.
    GlobalAvgPool(GlobalAvgPool),
    /// Dropout (active only in training mode).
    Dropout(Dropout),
    /// Flatten `[N, C, H, W]` to `[N, C·H·W]`.
    Flatten(Flatten),
    /// Named children applied in order.
    Sequential(Sequential),
    /// `activation(body(x) + shortcut(x))` — ResNet blocks, MobileNet
    /// inverted residuals (without the activation).
    Residual(Residual),
    /// Parallel branches concatenated along the channel axis (Inception).
    Branches(Branches),
}

/// Named children applied in order.
pub struct Sequential {
    /// Child modules with their path segments.
    pub children: Vec<(String, Module)>,
}

/// A residual connection: `post(body(x) + shortcut(x))`.
pub struct Residual {
    /// Main path.
    pub body: Box<Module>,
    /// Optional projection shortcut (`downsample` in torchvision); identity
    /// when `None`.
    pub downsample: Option<Box<Module>>,
    /// Apply a ReLU after the sum (ResNet yes, MobileNetV2 no).
    pub post_relu: bool,
    relu_mask: Option<Vec<bool>>,
}

/// Channel-concatenated parallel branches.
pub struct Branches {
    /// Branch modules with their path segments.
    pub children: Vec<(String, Module)>,
    out_channels: Vec<usize>,
}

impl Sequential {
    /// Builds a sequential from `(name, module)` pairs.
    pub fn new(children: Vec<(String, Module)>) -> Self {
        Sequential { children }
    }
}

impl Residual {
    /// Builds a residual block.
    pub fn new(body: Module, downsample: Option<Module>, post_relu: bool) -> Self {
        Residual {
            body: Box::new(body),
            downsample: downsample.map(Box::new),
            post_relu,
            relu_mask: None,
        }
    }
}

impl Branches {
    /// Builds a branch set from `(name, module)` pairs.
    pub fn new(children: Vec<(String, Module)>) -> Self {
        Branches { children, out_channels: Vec::new() }
    }
}

/// Helper: extract `[N, C, H, W]` dims.
pub(crate) fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    let d = t.shape().dims();
    assert_eq!(d.len(), 4, "expected NCHW tensor, got {:?}", d);
    (d[0], d[1], d[2], d[3])
}

impl Module {
    /// Convenience constructor for a sequential module.
    pub fn seq(children: Vec<(&str, Module)>) -> Module {
        Module::Sequential(Sequential::new(
            children.into_iter().map(|(n, m)| (n.to_string(), m)).collect(),
        ))
    }

    /// Forward pass. Caches whatever the backward pass needs. When a
    /// [`ForwardTap`] is attached to the context, every parameterized
    /// leaf's output is reported with its layer path.
    pub fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        match self {
            Module::Conv2d(l) => {
                let y = l.forward(x, ctx);
                ctx.tap_record("", &y);
                y
            }
            Module::BatchNorm2d(l) => {
                let y = l.forward(x, ctx);
                ctx.tap_record("", &y);
                y
            }
            Module::Linear(l) => {
                let y = l.forward(x, ctx);
                ctx.tap_record("", &y);
                y
            }
            Module::ReLU(l) => l.forward(x),
            Module::ReLU6(l) => l.forward(x),
            Module::MaxPool2d(l) => l.forward(x),
            Module::GlobalAvgPool(l) => l.forward(x),
            Module::Dropout(l) => l.forward(x, ctx),
            Module::Flatten(l) => l.forward(x),
            Module::Sequential(s) => {
                let mut cur = x;
                for (name, child) in &mut s.children {
                    ctx.tap_push(name);
                    cur = child.forward(cur, ctx);
                    ctx.tap_pop();
                }
                cur
            }
            Module::Residual(r) => {
                let shortcut = match &mut r.downsample {
                    Some(ds) => {
                        ctx.tap_push("downsample");
                        let y = ds.forward(x.clone(), ctx);
                        ctx.tap_pop();
                        y
                    }
                    None => x.clone(),
                };
                ctx.tap_push("body");
                let mut out = r.body.forward(x, ctx);
                ctx.tap_pop();
                out.add_assign(&shortcut).expect("residual shapes must match");
                if r.post_relu {
                    let mask: Vec<bool> = out.data().iter().map(|&v| v > 0.0).collect();
                    for (v, &m) in out.data_mut().iter_mut().zip(&mask) {
                        if !m {
                            *v = 0.0;
                        }
                    }
                    r.relu_mask = Some(mask);
                }
                out
            }
            Module::Branches(b) => {
                let (n, _, h, w) = dims4(&x);
                let mut outputs = Vec::with_capacity(b.children.len());
                b.out_channels.clear();
                for (name, child) in &mut b.children {
                    ctx.tap_push(name);
                    let y = child.forward(x.clone(), ctx);
                    ctx.tap_pop();
                    let (_, c, yh, yw) = dims4(&y);
                    assert_eq!((yh, yw), (h, w), "branch outputs must share spatial dims");
                    b.out_channels.push(c);
                    outputs.push(y);
                }
                let total_c: usize = b.out_channels.iter().sum();
                let mut out = Tensor::zeros([n, total_c, h, w]);
                let plane = h * w;
                let od = out.data_mut();
                let mut c_off = 0usize;
                for (y, &c) in outputs.iter().zip(&b.out_channels) {
                    let yd = y.data();
                    for ni in 0..n {
                        let src = &yd[ni * c * plane..(ni + 1) * c * plane];
                        let dst_start = ni * total_c * plane + c_off * plane;
                        od[dst_start..dst_start + c * plane].copy_from_slice(src);
                    }
                    c_off += c;
                }
                out
            }
        }
    }

    /// Backward pass: consumes the output gradient, accumulates parameter
    /// gradients in the leaf layers, and returns the input gradient.
    pub fn backward(&mut self, grad: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        match self {
            Module::Conv2d(l) => l.backward(grad, ctx),
            Module::BatchNorm2d(l) => l.backward(grad, ctx),
            Module::Linear(l) => l.backward(grad, ctx),
            Module::ReLU(l) => l.backward(grad),
            Module::ReLU6(l) => l.backward(grad),
            Module::MaxPool2d(l) => l.backward(grad),
            Module::GlobalAvgPool(l) => l.backward(grad),
            Module::Dropout(l) => l.backward(grad),
            Module::Flatten(l) => l.backward(grad),
            Module::Sequential(s) => {
                let mut cur = grad;
                for (_, child) in s.children.iter_mut().rev() {
                    cur = child.backward(cur, ctx);
                }
                cur
            }
            Module::Residual(r) => {
                let mut g = grad;
                if r.post_relu {
                    let mask = r.relu_mask.take().expect("backward before forward");
                    for (v, m) in g.data_mut().iter_mut().zip(mask) {
                        if !m {
                            *v = 0.0;
                        }
                    }
                }
                let mut gin = r.body.backward(g.clone(), ctx);
                let gshort = match &mut r.downsample {
                    Some(ds) => ds.backward(g, ctx),
                    None => g,
                };
                gin.add_assign(&gshort).expect("residual grads must match");
                gin
            }
            Module::Branches(b) => {
                let (n, total_c, h, w) = dims4(&grad);
                assert_eq!(total_c, b.out_channels.iter().sum::<usize>());
                let plane = h * w;
                let gd = grad.data();
                let mut gin: Option<Tensor> = None;
                let mut c_off = 0usize;
                for ((_, child), &c) in b.children.iter_mut().zip(&b.out_channels) {
                    let mut gy = Tensor::zeros([n, c, h, w]);
                    {
                        let gyd = gy.data_mut();
                        for ni in 0..n {
                            let src_start = ni * total_c * plane + c_off * plane;
                            gyd[ni * c * plane..(ni + 1) * c * plane]
                                .copy_from_slice(&gd[src_start..src_start + c * plane]);
                        }
                    }
                    let gchild = child.backward(gy, ctx);
                    match &mut gin {
                        Some(acc) => acc.add_assign(&gchild).expect("branch grads must match"),
                        None => gin = Some(gchild),
                    }
                    c_off += c;
                }
                gin.expect("branches must be non-empty")
            }
        }
    }

    /// Visits every state entry `(path, tensor, kind, layer_trainable)` in
    /// canonical (definition) order.
    pub fn visit_state<'s>(
        &'s self,
        prefix: &str,
        f: &mut dyn FnMut(String, &'s Tensor, EntryKind, bool),
    ) {
        let join = |name: &str| {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            }
        };
        match self {
            Module::Conv2d(l) => l.visit_state(prefix, f),
            Module::BatchNorm2d(l) => l.visit_state(prefix, f),
            Module::Linear(l) => l.visit_state(prefix, f),
            Module::Sequential(s) => {
                for (name, child) in &s.children {
                    child.visit_state(&join(name), f);
                }
            }
            Module::Residual(r) => {
                r.body.visit_state(&join("body"), f);
                if let Some(ds) = &r.downsample {
                    ds.visit_state(&join("downsample"), f);
                }
            }
            Module::Branches(b) => {
                for (name, child) in &b.children {
                    child.visit_state(&join(name), f);
                }
            }
            _ => {}
        }
    }

    /// Mutable variant of [`Module::visit_state`] (no kind filtering).
    pub fn visit_state_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, EntryKind),
    ) {
        let join = |name: &str, prefix: &str| {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            }
        };
        match self {
            Module::Conv2d(l) => l.visit_state_mut(prefix, f),
            Module::BatchNorm2d(l) => l.visit_state_mut(prefix, f),
            Module::Linear(l) => l.visit_state_mut(prefix, f),
            Module::Sequential(s) => {
                for (name, child) in &mut s.children {
                    child.visit_state_mut(&join(name, prefix), f);
                }
            }
            Module::Residual(r) => {
                let p = join("body", prefix);
                r.body.visit_state_mut(&p, f);
                if let Some(ds) = &mut r.downsample {
                    let p = join("downsample", prefix);
                    ds.visit_state_mut(&p, f);
                }
            }
            Module::Branches(b) => {
                for (name, child) in &mut b.children {
                    child.visit_state_mut(&join(name, prefix), f);
                }
            }
            _ => {}
        }
    }

    /// Visits `(path, param, grad)` for every trainable parameter.
    pub fn visit_trainable_mut(
        &mut self,
        prefix: &str,
        f: &mut dyn FnMut(String, &mut Tensor, &mut Tensor),
    ) {
        let join = |name: &str, prefix: &str| {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            }
        };
        match self {
            Module::Conv2d(l) => l.visit_trainable_mut(prefix, f),
            Module::BatchNorm2d(l) => l.visit_trainable_mut(prefix, f),
            Module::Linear(l) => l.visit_trainable_mut(prefix, f),
            Module::Sequential(s) => {
                for (name, child) in &mut s.children {
                    child.visit_trainable_mut(&join(name, prefix), f);
                }
            }
            Module::Residual(r) => {
                let p = join("body", prefix);
                r.body.visit_trainable_mut(&p, f);
                if let Some(ds) = &mut r.downsample {
                    let p = join("downsample", prefix);
                    ds.visit_trainable_mut(&p, f);
                }
            }
            Module::Branches(b) => {
                for (name, child) in &mut b.children {
                    child.visit_trainable_mut(&join(name, prefix), f);
                }
            }
            _ => {}
        }
    }

    /// Marks layers trainable/frozen by path predicate. A leaf layer is
    /// trainable iff `pred(layer_path)` returns true.
    pub fn set_trainable(&mut self, prefix: &str, pred: &dyn Fn(&str) -> bool) {
        let join = |name: &str, prefix: &str| {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            }
        };
        match self {
            Module::Conv2d(l) => l.trainable = pred(prefix),
            Module::BatchNorm2d(l) => l.trainable = pred(prefix),
            Module::Linear(l) => l.trainable = pred(prefix),
            Module::Sequential(s) => {
                for (name, child) in &mut s.children {
                    child.set_trainable(&join(name, prefix), pred);
                }
            }
            Module::Residual(r) => {
                let p = join("body", prefix);
                r.body.set_trainable(&p, pred);
                if let Some(ds) = &mut r.downsample {
                    let p = join("downsample", prefix);
                    ds.set_trainable(&p, pred);
                }
            }
            Module::Branches(b) => {
                for (name, child) in &mut b.children {
                    child.set_trainable(&join(name, prefix), pred);
                }
            }
            _ => {}
        }
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        match self {
            Module::Conv2d(l) => l.zero_grad(),
            Module::BatchNorm2d(l) => l.zero_grad(),
            Module::Linear(l) => l.zero_grad(),
            Module::Sequential(s) => {
                for (_, child) in &mut s.children {
                    child.zero_grad();
                }
            }
            Module::Residual(r) => {
                r.body.zero_grad();
                if let Some(ds) = &mut r.downsample {
                    ds.zero_grad();
                }
            }
            Module::Branches(b) => {
                for (_, child) in &mut b.children {
                    child.zero_grad();
                }
            }
            _ => {}
        }
    }

    /// Bytes held by allocated parameter gradients.
    pub fn grad_nbytes(&self) -> usize {
        match self {
            Module::Conv2d(l) => l.grad_nbytes(),
            Module::BatchNorm2d(l) => l.grad_nbytes(),
            Module::Linear(l) => l.grad_nbytes(),
            Module::Sequential(s) => s.children.iter().map(|(_, c)| c.grad_nbytes()).sum(),
            Module::Residual(r) => {
                r.body.grad_nbytes() + r.downsample.as_ref().map_or(0, |ds| ds.grad_nbytes())
            }
            Module::Branches(b) => b.children.iter().map(|(_, c)| c.grad_nbytes()).sum(),
            _ => 0,
        }
    }

    /// Enumerates `(layer_path, trainable)` for every parameterized leaf
    /// layer in canonical order — mmlib's layer granularity.
    pub fn layer_paths(&self, prefix: &str, out: &mut Vec<(String, bool)>) {
        let join = |name: &str| {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            }
        };
        match self {
            Module::Conv2d(l) => out.push((prefix.to_string(), l.trainable)),
            Module::BatchNorm2d(l) => out.push((prefix.to_string(), l.trainable)),
            Module::Linear(l) => out.push((prefix.to_string(), l.trainable)),
            Module::Sequential(s) => {
                for (name, child) in &s.children {
                    child.layer_paths(&join(name), out);
                }
            }
            Module::Residual(r) => {
                r.body.layer_paths(&join("body"), out);
                if let Some(ds) = &r.downsample {
                    ds.layer_paths(&join("downsample"), out);
                }
            }
            Module::Branches(b) => {
                for (name, child) in &b.children {
                    child.layer_paths(&join(name), out);
                }
            }
            _ => {}
        }
    }
}
