//! # dehealth-stylometry
//!
//! Table-I stylometric feature extraction for the De-Health reproduction.
//!
//! The paper extracts thirteen feature categories from every post —
//! lexical (length, word length, vocabulary richness, letter/digit
//! frequencies, uppercase percentage, special characters, word shape),
//! syntactic (punctuation, function words, POS tags, POS-tag bigrams), and
//! idiosyncratic (misspellings). This crate implements all of them over the
//! `dehealth-text` substrate:
//!
//! - [`registry`] — the stable feature index space (category layout,
//!   feature names, total dimension [`registry::M`]);
//! - [`features`] — the per-post extractor [`features::extract`];
//! - [`vector`] — [`vector::FeatureVector`] plus per-user aggregation
//!   (merged per post, or densely with [`vector::UserAccumulator`]) and
//!   the binary *attribute* projection of Section II-B (`u ~ A_i` with
//!   weight `l_u(A_i)` = number of posts of `u` exhibiting feature `i`);
//! - [`ngrams`] — the optional *content feature* extension (hashed
//!   character trigrams and word unigrams) the paper defers to future
//!   work.

pub mod features;
pub mod ngrams;
#[cfg(test)]
mod reference;
pub mod registry;
pub mod vector;

pub use features::extract;
pub use ngrams::{extract_content, extract_extended, M_CONTENT};
pub use registry::{categories, feature_name, Category, M};
pub use vector::{FeatureVector, UserAccumulator, UserAttributes, UserProfile};
