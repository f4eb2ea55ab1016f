//! An optimizer step on a model that never ran a backward pass sees zero
//! gradients, exactly as if the gradients had been allocated zero-filled
//! when the model was built.

use mmlib_model::{ArchId, Model};
use mmlib_train::{Adam, AdamConfig, Sgd, SgdConfig};

/// A model with no gradient buffers yet, and a copy of it that `step`
/// updated by hand, checking each gradient it is handed is zero.
fn step_by_hand(step: impl Fn(&mut [f32])) -> (Model, Model) {
    let model = Model::new_initialized(ArchId::TinyCnn, 11);
    assert_eq!(model.grad_nbytes(), 0);
    let mut want = model.duplicate();
    want.visit_trainable_mut(&mut |path, param, grad| {
        assert!(grad.data().iter().all(|&g| g.to_bits() == 0), "{path}");
        step(param.data_mut());
    });
    assert!(!want.models_equal(&model), "the hand step moves the parameters");
    (model, want)
}

#[test]
fn sgd_step_without_backward_equals_a_zero_gradient_step() {
    let cfg = SgdConfig { lr: 0.1, momentum: 0.9, weight_decay: 0.01, max_grad_norm: Some(1.0) };
    let (mut model, want) = step_by_hand(|w| {
        for w in w {
            // v ← μ·0 + (0 + λ·w); w ← w − lr·v
            let v = cfg.momentum * 0.0 + (0.0 + cfg.weight_decay * *w);
            *w -= cfg.lr * v;
        }
    });
    Sgd::new(cfg).step(&mut model);
    assert!(model.models_equal(&want));
}

#[test]
fn adam_step_without_backward_equals_a_zero_gradient_step() {
    let cfg = AdamConfig { weight_decay: 0.01, ..AdamConfig::default() };
    let (mut model, want) = step_by_hand(|w| {
        let (bias1, bias2) = (1.0 - cfg.beta1 as f64, 1.0 - cfg.beta2 as f64);
        for w in w {
            let g = 0.0 + cfg.weight_decay * *w;
            let m = cfg.beta1 * 0.0 + (1.0 - cfg.beta1) * g;
            let v = cfg.beta2 * 0.0 + (1.0 - cfg.beta2) * g * g;
            let (m_hat, v_hat) = (m as f64 / bias1, v as f64 / bias2);
            *w -= (cfg.lr as f64 * m_hat / (v_hat.sqrt() + cfg.eps as f64)) as f32;
        }
    });
    Adam::new(cfg).step(&mut model);
    assert!(model.models_equal(&want));
}
