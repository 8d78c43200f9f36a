"""The panel-structured synthetic corpus shared by the desk-scale experiments."""

import numpy as np

from labmlm.corpus import code_frequencies, generate_synthetic_corpus, split_patients
from labmlm.ecdf import build_ecdf


def panel_corpus(seed, fractions):
    """2000 patients over four 5-code panels, split by patient with `fractions`.

    Each panel is tied to one latent direction with unit-norm loadings over
    sigma 0.05, so a masked value is recoverable from its companions; one
    member per panel carries a flipped sign so random weights cannot impute by
    naive averaging while a trained model still can (code identity reveals the
    sign). `seed` drives both the generator and the split.

    Returns (truth, counts, ecdfs, splits), `splits` holding the train and val
    events.
    """
    angles = np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
    loadings = np.stack([(-1.0 if j // 4 == 1 else 1.0)
                         * np.array([np.cos(angles[j % 4]), np.sin(angles[j % 4])])
                         for j in range(20)])
    events, truth = generate_synthetic_corpus(
        2000, 20, latent_dim=2, seed=seed, n_panels=4,
        loadings=loadings, sigmas=np.full(20, 0.05))
    counts = code_frequencies(events)
    by_code = {}
    for e in events:
        if e.value is not None:
            by_code.setdefault(e.code_id, []).append(e.value)
    ecdfs = {c: build_ecdf(c, np.asarray(v)) for c, v in sorted(by_code.items())}
    train_ids, val_ids, _ = split_patients(
        {e.patient_id for e in events}, fractions, seed=seed)
    splits = {
        "train": [e for e in events if e.patient_id in train_ids],
        "val": [e for e in events if e.patient_id in val_ids],
    }
    return truth, counts, ecdfs, splits
