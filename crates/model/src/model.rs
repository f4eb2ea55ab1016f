//! The [`Model`] type: architecture id + module tree + state-dict API.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

use mmlib_tensor::{Pcg32, Shape, Tensor};

use crate::arch::{ArchId, Builder, Source};
use crate::module::{Ctx, EntryKind, Module};

/// Errors produced by state-dict loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The state dict lacks an entry the model expects.
    MissingEntry(String),
    /// The state dict contains an entry the model does not have.
    UnexpectedEntry(String),
    /// An entry exists but its shape does not match the model's tensor.
    ShapeMismatch {
        /// Entry path.
        path: String,
        /// Shape dims the model expects.
        expected: Vec<usize>,
        /// Shape dims the state dict provides.
        actual: Vec<usize>,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::MissingEntry(p) => write!(f, "state dict missing entry {p}"),
            ModelError::UnexpectedEntry(p) => write!(f, "state dict has unexpected entry {p}"),
            ModelError::ShapeMismatch { path, expected, actual } => {
                write!(f, "shape mismatch at {path}: expected {expected:?}, got {actual:?}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// Matches provided state entries to a model's slots by path: the one place
/// that states when an entry is missing, unexpected or the wrong shape.
/// [`Model::from_state`], [`Model::load_state_dict`] and
/// [`Model::apply_update`] all go through it.
pub(crate) struct StateMatch<K, V> {
    provided: BTreeMap<K, V>,
    error: Option<ModelError>,
}

impl<K: Ord + Borrow<str>, V: Borrow<Tensor>> StateMatch<K, V> {
    fn new(entries: impl IntoIterator<Item = (K, V)>) -> Self {
        StateMatch { provided: entries.into_iter().collect(), error: None }
    }

    /// Takes the entry for the slot at `path`, whose shape is `expected`.
    /// Records the first mismatch instead: a wrong shape, or no entry when
    /// the slot is `required`. Once one is recorded, takes nothing more.
    pub(crate) fn take(&mut self, path: String, expected: &Shape, required: bool) -> Option<V> {
        if self.error.is_some() {
            return None;
        }
        match self.provided.remove(path.as_str()) {
            Some(v) if v.borrow().shape() == expected => Some(v),
            Some(v) => {
                self.error = Some(ModelError::ShapeMismatch {
                    path,
                    expected: expected.dims().to_vec(),
                    actual: v.borrow().shape().dims().to_vec(),
                });
                None
            }
            None => {
                if required {
                    self.error = Some(ModelError::MissingEntry(path));
                }
                None
            }
        }
    }

    /// The first mismatch, else the first provided entry no slot took.
    fn finish(mut self) -> Result<(), ModelError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        match self.provided.pop_first() {
            Some((path, _)) => Err(ModelError::UnexpectedEntry(path.borrow().to_string())),
            None => Ok(()),
        }
    }
}

/// Description of one mmlib layer (a parameterized leaf module).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerDesc {
    /// Canonical layer path (e.g. `"layer1.0.body.conv1"`).
    pub path: String,
    /// Whether the layer is currently trainable.
    pub trainable: bool,
}

/// A deep-learning model: `M = (M_a, M_p)` in the paper's notation — an
/// architecture plus its parameters. This is the unit mmlib saves and
/// recovers, and the recovery invariant is `recover(save(m)) == m`
/// bit-for-bit over the full state dict (parameters *and* buffers).
pub struct Model {
    /// The architecture id (`M_a` is this id plus [`ArchId::source_code`]
    /// plus the captured environment).
    pub arch: ArchId,
    root: Module,
}

impl Model {
    /// Builds and initializes a model with the architecture's torchvision
    /// init routine. The same `(arch, seed)` always yields a bit-identical
    /// model (§2.3's seeded-randomness requirement).
    pub fn new_initialized(arch: ArchId, seed: u64) -> Model {
        let mut rng = Pcg32::new(seed, 0x6d6d6c69622d6d6f); // "mmlib-mo"
        Model { arch, root: arch.build(&mut Builder::new(Source::Init(&mut rng))) }
    }

    /// Builds `arch` around a state dict, moving each tensor into its slot
    /// as the tree is built. No initializer runs and no parameter buffer is
    /// written: this is how a model is recovered. Entries must match the
    /// architecture exactly, by the same rules as [`Model::load_state_dict`].
    pub fn from_state(arch: ArchId, entries: Vec<(String, Tensor)>) -> Result<Model, ModelError> {
        let mut state = StateMatch::new(entries);
        let root = arch.build(&mut Builder::new(Source::State(&mut state)));
        state.finish()?;
        Ok(Model { arch, root })
    }

    /// Immutable access to the module tree.
    pub fn root(&self) -> &Module {
        &self.root
    }

    /// Mutable access to the module tree.
    pub fn root_mut(&mut self) -> &mut Module {
        &mut self.root
    }

    /// Forward pass on `[N, 3, H, W]` input.
    pub fn forward(&mut self, x: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        self.root.forward(x, ctx)
    }

    /// Backward pass from the loss gradient.
    pub fn backward(&mut self, grad: Tensor, ctx: &mut Ctx<'_>) -> Tensor {
        self.root.backward(grad, ctx)
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.root.zero_grad();
    }

    /// The full state dict (parameters + buffers) in canonical order, cloned.
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        self.root.visit_state("", &mut |path, t, _, _| out.push((path, t.clone())));
        out
    }

    /// Borrowed state-dict view `(path, tensor, kind, layer_trainable)` in
    /// canonical order — allocation-free for hashing and serialization.
    pub fn state_entries(&self) -> Vec<(String, &Tensor, EntryKind, bool)> {
        let mut out = Vec::new();
        self.root
            .visit_state("", &mut |path, t, kind, trainable| out.push((path, t, kind, trainable)));
        out
    }

    /// Loads a full state dict. Every model entry must be present, every
    /// provided entry must exist in the model, and shapes must match.
    pub fn load_state_dict(&mut self, entries: &[(String, Tensor)]) -> Result<(), ModelError> {
        self.copy_entries(entries, true)
    }

    /// Applies a *partial* state dict: provided entries overwrite matching
    /// model entries; everything else is left untouched. This is the merge
    /// the parameter-update approach performs at recovery ("prioritizing
    /// M's parameter information in case of merge conflicts", §3.2).
    pub fn apply_update(&mut self, entries: &[(String, Tensor)]) -> Result<(), ModelError> {
        self.copy_entries(entries, false)
    }

    fn copy_entries(&mut self, entries: &[(String, Tensor)], required: bool) -> Result<(), ModelError> {
        let mut state = StateMatch::new(entries.iter().map(|(p, t)| (p.as_str(), t)));
        self.root.visit_state_mut("", &mut |path, dst, _| {
            if let Some(src) = state.take(path, dst.shape(), required) {
                // Copy in place: reusing the existing allocation matters on
                // systems where page faults are expensive.
                dst.data_mut().copy_from_slice(src.data());
            }
        });
        state.finish()
    }

    /// Total count of *parameter* elements (buffers excluded), regardless of
    /// trainability — the paper's "#Params" column.
    pub fn param_count(&self) -> u64 {
        let mut n = 0u64;
        self.root.visit_state("", &mut |_, t, kind, _| {
            if kind == EntryKind::Parameter {
                n += t.numel() as u64;
            }
        });
        n
    }

    /// Count of parameter elements in currently-trainable layers — the
    /// paper's "part. updated" column when only the classifier is trainable.
    pub fn trainable_param_count(&self) -> u64 {
        let mut n = 0u64;
        self.root.visit_state("", &mut |_, t, kind, trainable| {
            if kind == EntryKind::Parameter && trainable {
                n += t.numel() as u64;
            }
        });
        n
    }

    /// Raw byte size of the full state dict (parameters + buffers).
    pub fn state_nbytes(&self) -> u64 {
        let mut n = 0u64;
        self.root.visit_state("", &mut |_, t, _, _| n += t.nbytes() as u64);
        n
    }

    /// Bytes held by gradient buffers. A model is built with none: a
    /// parameter's gradient is allocated by the first backward pass or
    /// [`Model::visit_trainable_mut`] that needs it.
    pub fn grad_nbytes(&self) -> u64 {
        self.root.grad_nbytes() as u64
    }

    /// Enumerates the mmlib layers (parameterized leaf modules) in order.
    pub fn layers(&self) -> Vec<LayerDesc> {
        let mut out = Vec::new();
        self.root.layer_paths("", &mut out);
        out.into_iter().map(|(path, trainable)| LayerDesc { path, trainable }).collect()
    }

    /// Marks every layer trainable (fully-updated model relation).
    pub fn set_fully_trainable(&mut self) {
        self.root.set_trainable("", &|_| true);
    }

    /// Freezes everything except the classifier (partially-updated relation:
    /// "only the last fully connected layers", paper §4.1).
    pub fn set_classifier_only_trainable(&mut self) {
        let prefix = self.arch.classifier_prefix();
        self.root.set_trainable("", &move |path| path.starts_with(prefix));
    }

    /// Visits `(path, param, grad)` for trainable parameters (optimizer
    /// hook). Each gradient is full-size: one not yet allocated is
    /// allocated here, zero-filled.
    pub fn visit_trainable_mut(&mut self, f: &mut dyn FnMut(String, &mut Tensor, &mut Tensor)) {
        self.root.visit_trainable_mut("", f);
    }

    /// Copies another model's full state into this one, in place (no
    /// intermediate clones — important on page-fault-expensive hosts).
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub fn copy_state_from(&mut self, other: &Model) {
        assert_eq!(self.arch, other.arch, "copy_state_from requires equal architectures");
        let src: Vec<(String, &Tensor)> = {
            let mut v = Vec::new();
            other.root().visit_state("", &mut |p, t, _, _| v.push((p, t)));
            v
        };
        let mut i = 0usize;
        self.root.visit_state_mut("", &mut |path, dst, _| {
            let (sp, st) = &src[i];
            assert_eq!(&path, sp, "state traversal order must match");
            dst.data_mut().copy_from_slice(st.data());
            i += 1;
        });
        assert_eq!(i, src.len());
    }

    /// Creates an independent copy of this model (architecture + exact
    /// state), built around clones of its tensors with no initializer run.
    /// `Model` is deliberately not `Clone` so copies stay explicit.
    pub fn duplicate(&self) -> Model {
        Model::from_state(self.arch, self.state_dict())
            .expect("a model's own state dict fits its architecture")
    }

    /// Bit-exact model equality: same architecture and identical state dict
    /// (paper §2.1's `M_a = M'_a ∧ M_p = M'_p`).
    pub fn models_equal(&self, other: &Model) -> bool {
        if self.arch != other.arch {
            return false;
        }
        let a = self.state_entries();
        let b = other.state_entries();
        a.len() == b.len()
            && a.iter()
                .zip(&b)
                .all(|((pa, ta, _, _), (pb, tb, _, _))| pa == pb && ta.bit_eq(tb))
    }
}
