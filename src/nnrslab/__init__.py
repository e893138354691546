"""Training laboratory for nearest-neighbor replacement sampling (NNRS).

Curriculum-driven token replacement for sequence-model training: teacher
tokens are stochastically swapped for the model's own predictions
(scheduled sampling) or for embedding-space neighbors of the teacher token
(NNRS and its variants), with an evaluation suite for comparing the
resulting models.
"""

__version__ = "0.1.0"
