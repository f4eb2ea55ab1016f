//! A model holds no gradient memory until something needs a gradient: a
//! backward pass, or `visit_trainable_mut` handing gradients out.

use mmlib_model::{ArchId, Ctx, Model};
use mmlib_tensor::{ExecMode, Pcg32, Tensor};

/// Bytes of the parameters in trainable layers (f32 elements).
fn trainable_param_bytes(model: &Model) -> u64 {
    model.trainable_param_count() * 4
}

fn forward_backward(model: &mut Model) {
    let mut rng = Pcg32::seeded(5);
    let x = Tensor::rand_normal([2, 3, 8, 8], 0.0, 1.0, &mut rng);
    let mut ctx_rng = Pcg32::seeded(6);
    let mut ctx = Ctx::train(&mut ctx_rng, ExecMode::Deterministic);
    let y = model.forward(x, &mut ctx);
    model.backward(y, &mut ctx);
}

#[test]
fn built_models_hold_no_gradients() {
    let mut fresh = Model::new_initialized(ArchId::TinyCnn, 7);
    assert_eq!(fresh.grad_nbytes(), 0, "new_initialized");
    let recovered = Model::from_state(fresh.arch, fresh.state_dict()).unwrap();
    assert_eq!(recovered.grad_nbytes(), 0, "from_state");
    assert_eq!(fresh.duplicate().grad_nbytes(), 0, "duplicate");
    fresh.zero_grad();
    assert_eq!(fresh.grad_nbytes(), 0, "zero_grad on a fresh model");
}

#[test]
fn the_first_backward_pass_allocates_every_gradient() {
    let mut model = Model::new_initialized(ArchId::TinyCnn, 7);
    forward_backward(&mut model);
    assert_eq!(model.grad_nbytes(), trainable_param_bytes(&model));
    assert_eq!(trainable_param_bytes(&model), model.param_count() * 4, "every layer trains");

    // zero_grad keeps the buffers and zeroes them.
    model.zero_grad();
    assert_eq!(model.grad_nbytes(), trainable_param_bytes(&model));
    model.visit_trainable_mut(&mut |path, _, grad| {
        assert!(grad.data().iter().all(|&g| g.to_bits() == 0), "{path} after zero_grad");
    });
}

#[test]
fn visiting_trainable_parameters_hands_out_zero_gradients_of_their_shape() {
    let mut model = Model::new_initialized(ArchId::TinyCnn, 7);
    model.set_classifier_only_trainable();
    model.visit_trainable_mut(&mut |path, param, grad| {
        assert_eq!(grad.shape(), param.shape(), "{path}");
        assert!(grad.data().iter().all(|&g| g.to_bits() == 0), "{path}");
    });
    // Only the trainable layers' gradients were allocated.
    assert_eq!(model.grad_nbytes(), trainable_param_bytes(&model));
    assert!(model.grad_nbytes() < model.param_count() * 4);
}
