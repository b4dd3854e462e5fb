"""Kronecker-factored ("coupling") attention, built on a small numpy autograd.

The attention map over an h x w token grid is represented as the Kronecker
product of an h x h row-score matrix and a w x w column-score matrix, so
score storage per head drops from (hw)^2 to h^2 + w^2 elements.  The package
includes the tensor/autograd substrate, both attention mechanisms with
cross-checking oracles, a small image classifier, a training loop over IDX
datasets, cost accounting, and a CLI.

Import from the modules (``couplformer.autograd``, ``couplformer.model``,
``couplformer.train``, ...); the package root re-exports nothing, so
importing one module loads only what that module needs.
"""
