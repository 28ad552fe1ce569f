"""Shared fixtures: small synthetic problems sized for fast unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from cniprobe.dataset import SynthSpec, make_synthetic
from cniprobe.headinit import HeadInitSpec, MODE_CNI, average_text_embeddings, init_head
from cniprobe.model import init_params


@pytest.fixture(scope="session")
def tiny_problem():
    """C=3, D=8, T=2 synthetic splits plus bank; shared, treat as read-only."""
    return make_synthetic(SynthSpec(classes=3, dim=8, tokens=2,
                                    train_per_class=6, test_per_class=6,
                                    prompts=3, img_noise=0.3, txt_noise=0.1,
                                    seed=11))


@pytest.fixture()
def tiny_cni_params(tiny_problem):
    _, _, bank = tiny_problem
    avg = average_text_embeddings(bank)
    head = init_head(HeadInitSpec(mode=MODE_CNI), avg, bank.num_classes, bank.dim)
    return init_params(head)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
