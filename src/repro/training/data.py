"""Synthetic datasets standing in for the paper's training corpora.

The paper traces training on ImageNet (image classification), MSCOCO
(img2txt) and SNLI / Wikitext-2 (language).  Those datasets cannot be
shipped here, so structured synthetic data is generated instead: class
conditional images with spatially-correlated features (so convolutional
features — and therefore ReLU sparsity patterns — develop the same way
they do on natural images), and token sequences with a skewed (Zipf-like)
vocabulary distribution for the sequence workloads.  What the simulator
consumes is only the operand sparsity the training process produces, which
these datasets reproduce mechanically: ReLU and pooling create activation
zeros, ReLU masking creates gradient zeros, and pruning creates weight
zeros.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np


class SyntheticImageDataset:
    """Class-conditional images of shape ``(channels, size, size)``.

    Each class has a set of Gaussian "blob" prototypes; samples are noisy
    superpositions.  Pixels are non-negative after an input ReLU-like
    clamp, matching post-normalisation camera data fed to the zoo models.
    """

    def __init__(
        self,
        num_classes: int = 10,
        channels: int = 3,
        size: int = 32,
        samples_per_class: int = 64,
        seed: int = 0,
    ):
        self.num_classes = num_classes
        self.channels = channels
        self.size = size
        self.samples_per_class = samples_per_class
        self.rng = np.random.default_rng(seed)
        self._prototypes = self.rng.normal(
            0.0, 1.0, size=(num_classes, channels, size, size)
        ).astype(np.float32)

    def __len__(self) -> int:
        return self.num_classes * self.samples_per_class

    def sample_batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw a random batch of (images, labels)."""
        labels = self.rng.integers(0, self.num_classes, size=batch_size)
        noise = self.rng.normal(0.0, 0.4, size=(batch_size, self.channels, self.size, self.size))
        images = self._prototypes[labels] + noise
        images = np.maximum(images, 0.0)
        return images.astype(np.float32), labels.astype(np.int64)

    def batches(self, batch_size: int, num_batches: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``num_batches`` random batches."""
        for _ in range(num_batches):
            yield self.sample_batch(batch_size)


class SyntheticSequenceDataset:
    """Token sequences with a Zipf-distributed vocabulary.

    Used by the img2txt, SNLI and GCN stand-ins.  Labels are either the
    next token (language modelling) or a sequence-level class.
    """

    def __init__(
        self,
        vocab_size: int = 512,
        sequence_length: int = 20,
        num_classes: int = 3,
        seed: int = 0,
    ):
        self.vocab_size = vocab_size
        self.sequence_length = sequence_length
        self.num_classes = num_classes
        self.rng = np.random.default_rng(seed)
        ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
        self._token_probs = (1.0 / ranks) / np.sum(1.0 / ranks)

    def sample_batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw a batch of (token sequences, sequence labels)."""
        tokens = self.rng.choice(
            self.vocab_size, size=(batch_size, self.sequence_length), p=self._token_probs
        )
        labels = self.rng.integers(0, self.num_classes, size=batch_size)
        return tokens.astype(np.int64), labels.astype(np.int64)

    def sample_lm_batch(self, batch_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draw a language-modelling batch: inputs and next-token targets."""
        tokens = self.rng.choice(
            self.vocab_size, size=(batch_size, self.sequence_length + 1), p=self._token_probs
        )
        return tokens[:, :-1].astype(np.int64), tokens[:, 1:].astype(np.int64)
