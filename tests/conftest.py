"""Fixtures shared across test modules."""

import numpy as np
import pytest

from deskclip import tensor as T


@pytest.fixture
def inject_overflow(monkeypatch):
    """``inject_overflow(trainer, attempts)`` makes the backward pass of each
    chosen attempt leave an infinite gradient on the trainer's first parameter,
    as an fp16 overflow would."""

    def install(trainer, attempts):
        real_backward = T.backward

        def backward(root):
            real_backward(root)
            if trainer.attempted in attempts:
                first = next(iter(trainer.model.trainable().values()))
                if first.grad is None:
                    first.grad = np.zeros_like(first.data)
                first.grad.reshape(-1)[0] = np.inf

        monkeypatch.setattr(T, "backward", backward)

    return install
