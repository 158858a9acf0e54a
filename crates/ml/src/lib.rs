#![warn(missing_docs)]
//! # dehealth-ml
//!
//! Benchmark machine-learning substrate for the De-Health reproduction.
//!
//! The refined-DA phase of the paper trains "a classifier using benchmark
//! machine learning techniques" — concretely KNN and the Sequential
//! Minimal Optimization (SMO) SVM in the evaluation, with Nearest Neighbor
//! and Regularized Least Squares Classification (RLSC) named as
//! alternatives. No offline ML crate is available, so this crate
//! implements them from scratch:
//!
//! - [`dataset`] — dense sample matrix + labels, the read-only training
//!   access trait [`Samples`] (owned [`Dataset`] or zero-copy
//!   [`DatasetView`] over a shared feature arena), the common
//!   train/predict interface [`Classifier`], and deterministic helpers;
//! - [`scale`] — min-max and z-score feature scalers (fit on train only);
//! - [`knn`] — k-nearest-neighbour voting classifier;
//! - [`centroid`] — nearest-centroid ("NN" in the paper's list);
//! - [`svm`] — Platt's SMO dual solver with linear and RBF kernels and a
//!   one-vs-rest multiclass wrapper;
//! - [`rlsc`] — regularized least-squares classification via Cholesky;
//! - [`eval`] — accuracy / confusion helpers and k-fold splits.

pub mod centroid;
pub mod dataset;
pub mod eval;
pub mod knn;
pub mod rlsc;
pub mod scale;
pub mod svm;

pub use centroid::NearestCentroid;
pub use dataset::{Classifier, Dataset, DatasetView, Prediction, Samples};
pub use eval::{accuracy, confusion_counts, kfold_indices};
pub use knn::{knn_predict, knn_vote_scored, Knn, KnnMetric};
pub use rlsc::Rlsc;
pub use scale::{MinMaxScaler, ZScoreScaler};
pub use svm::{Kernel, SmoSvm, SvmParams};
