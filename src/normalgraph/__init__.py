"""Discrete belief propagation and local parameter learning on
normal-form factor graphs.

Variables live on edges, equality diverters replicate them, and SISO
blocks carry row-stochastic matrices between them.  Cycle-free graphs get
exact forward/backward propagation; trainable blocks learn from the
messages that arrive at their ports, with four local update rules
(``ml``, ``kl``, ``vit``, ``var``) sharing one EM-style driver.

Import from the submodules (``messages``, ``graph``, ``propagation``,
``learning``, ``synthgen``, ``experiments``, ``cli``); each lists its
public names in ``__all__``.
"""

__version__ = "0.1.0"
